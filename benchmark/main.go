// Command benchmark measures the whole GraphZeppelin stack: five
// workloads, end-to-end metrics from an untraced pass and a per-layer
// budget from a traced one, every answer checked against an exact model.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() {
	if plan := os.Getenv(childEnv); plan != "" {
		if err := childMain(plan); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(parentMain(os.Args[1:], os.Stdout, os.Stderr))
}

// ResultFile is what -out writes and -compare reads.
type ResultFile struct {
	Host    Host   `json:"host"`
	Seed    uint64 `json:"seed"`
	Seconds int    `json:"seconds"`
	Scale   int    `json:"scale"`
	Runs    []*Run `json:"runs"`
}

func parentMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o Options
	name := fs.String("workload", "", "run this one workload and print the driver's JSON line last (default: all workloads, both passes)")
	fs.Uint64Var(&o.Seed, "seed", 1, "seed of the generated inputs and of the sketches")
	fs.IntVar(&o.Seconds, "seconds", 10, "nominal measuring time of one run: sizes the bulk phase's pass count")
	fs.IntVar(&o.Scale, "scale", 11, "dense Kronecker scale, 2^scale nodes (the smoke test uses 7)")
	trace := fs.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics of the untraced pass, 1 also runs the traced pass and reports the per-layer metrics")
	runs := fs.Int("runs", 1, "without -workload: repeat the whole set this many times")
	out := fs.String("out", "", "write a result file (host block and every run) here")
	fs.BoolVar(&o.Keep, "keep", false, "keep each run's directory (inputs, trace.json) and record its path")
	compare := fs.Bool("compare", false, "compare two result files given as arguments against each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare wants two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if o.Seconds < 1 || o.Scale < 6 || o.Scale > 14 || *runs < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: want -seconds >= 1, 6 <= -scale <= 14, -runs >= 1 and no arguments")
		return 2
	}
	file := ResultFile{Host: hostInfo(), Seed: o.Seed, Seconds: o.Seconds, Scale: o.Scale}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		run, err := runWorkload(w, o, *trace == 1)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printHost(stderr, file.Host)
		printRun(stderr, run)
		file.Runs = append(file.Runs, run)
		if err := writeOut(*out, file); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, driverLine(run))
		return 0
	}

	printHost(stdout, file.Host)
	ok := true
	for i := 0; i < *runs; i++ {
		for _, w := range workloads {
			run, err := runWorkload(w, o, true)
			if err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
			printRun(stdout, run)
			file.Runs = append(file.Runs, run)
			ok = ok && run.Correct
		}
	}
	if err := writeOut(*out, file); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		fmt.Fprintln(stdout, "FAILED: see the failures listed above")
		return 1
	}
	return 0
}

func writeOut(path string, file ResultFile) error {
	if path == "" {
		return nil
	}
	return writeJSON(path, file)
}

// driverLine is the one JSON object the driver reads: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
func driverLine(run *Run) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, values := endToEnd, run.Metrics
	if run.Layers != nil {
		defs, values = perLayer, run.Layers
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{Value: values[d.Name], Unit: d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   run.Correct,
		"attempted": run.Attempted,
		"failed":    run.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // plain maps of numbers and strings always marshal
	}
	return string(line)
}

func printHost(w io.Writer, h Host) {
	fmt.Fprintf(w, "host: %d CPUs (GOMAXPROCS %d), %s, %s, %s\n", h.NumCPU, h.GOMAXPROCS, h.CPUModel, h.GoVersion, h.OSArch)
	fmt.Fprintf(w, "commit %s, temp dir %s on %s\n", h.Commit, h.TempDir, h.TempFS)
}

func printMetrics(w io.Writer, run *Run, defs []Metric, values map[string]float64) {
	for _, d := range defs {
		if !d.appliesTo(run.Workload) {
			continue
		}
		bound, samples := "", ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
		}
		if n := run.Samples[d.Name]; n > 0 {
			samples = fmt.Sprintf("n=%d", n)
		}
		fmt.Fprintf(w, "  %-38s %14.4f %-10s %-6s %5s %s\n", d.Name, values[d.Name], d.Unit, d.Better, bound, samples)
	}
}

// printRun prints every metric of a run by name, with unit, direction
// and bound, then the traced pass's span table and any failures.
func printRun(w io.Writer, run *Run) {
	fmt.Fprintf(w, "\n== %s  seed %d  operations %d attempted, %d failed  (inputs %.1fs)\n",
		run.Workload, run.Seed, run.Attempted, run.Failed, run.InputSecs)
	fmt.Fprintf(w, "  %-38s %14s %-10s %-6s %5s\n", "end-to-end (untraced pass)", "value", "unit", "better", "bound")
	printMetrics(w, run, endToEnd, run.Metrics)
	if run.Layers != nil {
		fmt.Fprintf(w, "  per-layer (traced pass; the bounded rows are this workload's own end-to-end metrics, untraced)\n")
		printMetrics(w, run, perLayer, run.Layers)
		fmt.Fprintf(w, "  %-52s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
		names := make([]string, 0, len(run.Spans))
		for name := range run.Spans {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := run.Spans[name]
			fmt.Fprintf(w, "  %-52s %8d %12.2f %12.2f\n", name, s.Count, s.TotalMs, s.SelfMs)
		}
	}
	if len(run.Budget) > 0 {
		fmt.Fprintf(w, "  %-42s %12s %14s %12s\n", "ingest budget (unit cost x count)", "unit ns", "count", "product ms")
		for _, b := range run.Budget {
			fmt.Fprintf(w, "  %-42s %12.2f %14.0f %12.2f\n", b.Layer, b.UnitNs, b.Count, b.ProductMs)
		}
	}
	for _, f := range run.Failures {
		fmt.Fprintf(w, "  FAILURE %s\n", f)
	}
	if run.Dir != "" {
		fmt.Fprintf(w, "  kept %s\n", run.Dir)
	}
}
