// Command gzbench regenerates the paper's Section 6 artifacts on this
// machine: the sketch figures (fig4, fig5), the dataset table (table10),
// the system figures (fig11 to fig16) and the sketch reliability check.
// Each -exp value is one artifact; "all" runs them in order. System
// throughput, latency and memory under mixed load are measured by the
// repository benchmark instead (bash benchmark/run.sh; see README.md,
// "Reproducing the paper's evaluation").
//
// Usage:
//
//	gzbench -exp fig4
//	gzbench -exp all -max-scale 11 -trials 100
//	gzbench -exp fig11 -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"graphzeppelin/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gzbench: ")
	os.Exit(run())
}

// run holds main's body so profile-flush defers execute before the
// process exits with a status code.
func run() int {
	var (
		exp        = flag.String("exp", "all", "experiment: fig4, fig5, table10, fig11, fig12, fig13, fig14, fig15, fig16, reliability, all")
		maxScale   = flag.Int("max-scale", 10, "largest Kronecker scale for system experiments")
		trials     = flag.Int("trials", 25, "correctness checks per dataset (reliability)")
		seed       = flag.Uint64("seed", 1, "generator/sketch seed")
		quiet      = flag.Bool("q", false, "suppress progress output")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Printf("cpuprofile: %v", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Printf("cpuprofile: %v", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer writeHeapProfile(*memProfile)
	}

	o := experiments.Options{
		MaxScale: *maxScale,
		Trials:   *trials,
		Seed:     *seed,
		Verbose:  !*quiet,
		Progress: os.Stderr,
	}

	type runner func() (*experiments.Table, error)
	all := []struct {
		name string
		run  runner
	}{
		{"fig4", func() (*experiments.Table, error) { return experiments.Fig4(o), nil }},
		{"fig5", func() (*experiments.Table, error) { return experiments.Fig5(o), nil }},
		{"table10", func() (*experiments.Table, error) { return experiments.Table10(o), nil }},
		{"fig11", func() (*experiments.Table, error) { return experiments.Fig11(o) }},
		{"fig12", func() (*experiments.Table, error) { return experiments.Fig12(o) }},
		{"fig13", func() (*experiments.Table, error) { return experiments.Fig13(o) }},
		{"fig14", func() (*experiments.Table, error) { return experiments.Fig14(o) }},
		{"fig15", func() (*experiments.Table, error) { return experiments.Fig15(o) }},
		{"fig16", func() (*experiments.Table, error) { return experiments.Fig16(o) }},
		{"reliability", func() (*experiments.Table, error) {
			t, _, err := experiments.Reliability(o)
			return t, err
		}},
	}

	want := strings.Split(*exp, ",")
	matched := false
	for _, e := range all {
		if !selected(want, e.name) {
			continue
		}
		matched = true
		t, err := e.run()
		if err != nil {
			// Returning (not exiting) still flushes the profiles.
			log.Printf("%s: %v", e.name, err)
			return 1
		}
		t.Print(os.Stdout)
	}
	if !matched {
		log.Printf("no experiment matches %q", *exp)
		return 1
	}
	fmt.Fprintln(os.Stderr, "done")
	return 0
}

func selected(want []string, name string) bool {
	for _, w := range want {
		if w == "all" || strings.TrimSpace(w) == name {
			return true
		}
	}
	return false
}

func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Printf("memprofile: %v", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		log.Printf("memprofile: %v", err)
	}
}
