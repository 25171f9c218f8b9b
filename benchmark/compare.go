package main

import (
	"fmt"
	"io"
	"sort"
)

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method); with fewer
// than two values both are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = max(1, min(j, m-1))
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// compareFiles checks result set b against baseline a: one row per
// bounded metric and workload, saying pass, regressed (b's median is
// worse than a's by more than the bound) or unresolved (either side's
// run-to-run spread is wider than the bound, so nothing can be said).
// It returns 1 if any row regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var a, b ResultFile
	for path, f := range map[string]*ResultFile{pathA: &a, pathB: &b} {
		if err := readJSON(path, f); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	collect := func(f ResultFile, workload, metric string) (xs []float64) {
		for _, r := range f.Runs {
			if r.Workload != workload {
				continue
			}
			if v, ok := r.Metrics[metric]; ok {
				xs = append(xs, v)
			} else if v, ok := r.Layers[metric]; ok {
				xs = append(xs, v)
			}
		}
		return xs
	}
	fmt.Fprintf(stdout, "%-24s %-16s %12s %12s %8s %7s %7s %6s  %s\n",
		"metric", "workload", "median a", "median b", "change", "iqr a", "iqr b", "bound", "verdict")
	regressed, unresolved := 0, 0
	for _, d := range append(append([]Metric(nil), endToEnd...), perLayer...) {
		if d.Bound == 0 {
			continue
		}
		for _, w := range workloads {
			xa, xb := collect(a, w.Name, d.Name), collect(b, w.Name, d.Name)
			if !d.appliesTo(w.Name) || len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if d.Better == higher {
				worse = (ma - mb) / ma
			}
			verdict := "pass"
			switch {
			case spread(xa) > d.Bound || spread(xb) > d.Bound:
				verdict = "unresolved"
				unresolved++
			case worse > d.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(stdout, "%-24s %-16s %12.4f %12.4f %+7.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				d.Name, w.Name, ma, mb, 100*(mb-ma)/ma, 100*spread(xa), 100*spread(xb), 100*d.Bound, verdict)
		}
	}
	fmt.Fprintf(stdout, "%d regressed, %d unresolved (spread wider than the bound)\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}
