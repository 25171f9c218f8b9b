// Package experiments regenerates the paper's Section 6 artifacts: one
// function per table or figure (Fig4, Fig5, Table10, Fig11 to Fig16) plus
// the sketch reliability check, each producing its rows on this machine.
// The cmd/gzbench binary exposes them behind -exp flags, and the root
// package's benchmarks reuse KronStream. Scales default to sizes that
// finish on a small machine and grow with Options.MaxScale; the datasets
// are generated stand-ins because the paper's files are not bundled (see
// internal/kron).
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"graphzeppelin/internal/kron"
)

// Table is a printable experiment result.
type Table struct {
	ID     string // e.g. "fig4"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Print renders the table in aligned plain text.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Options scale the experiments. Zero values choose laptop-scale defaults.
type Options struct {
	// MaxScale is the largest Kronecker scale used by the system
	// experiments (default 10; the paper's kron13..kron18 correspond to
	// scales 13-18 and are reachable on larger machines).
	MaxScale int
	// Trials is the number of correctness checks per dataset for the
	// reliability experiment (paper: 1000; default 25).
	Trials int
	// Seed drives all generators.
	Seed uint64
	// Verbose writes progress lines to Progress while running.
	Verbose  bool
	Progress io.Writer
}

func (o Options) withDefaults() Options {
	if o.MaxScale == 0 {
		o.MaxScale = 10
	}
	if o.MaxScale < 6 {
		o.MaxScale = 6
	}
	if o.Trials == 0 {
		o.Trials = 25
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Progress == nil {
		o.Progress = io.Discard
	}
	return o
}

func (o Options) logf(format string, args ...any) {
	if o.Verbose {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// streamCache memoizes generated streams within one process so multiple
// experiments over the same dataset do not regenerate it.
var streamCache = map[string]kron.Result{}

// KronStream returns the converted stream for a dense Kronecker graph at
// the given scale, cached per (scale, seed).
func KronStream(scale int, seed uint64) kron.Result {
	key := fmt.Sprintf("kron/%d/%d", scale, seed)
	if r, ok := streamCache[key]; ok {
		return r
	}
	edges := kron.DenseKronecker(scale, seed)
	r := kron.ToStream(edges, 1<<scale, kron.StreamOptions{}, seed+1)
	streamCache[key] = r
	return r
}

// rate formats an updates/second figure the way the paper's tables do.
func rate(updates int, d time.Duration) string {
	if d <= 0 {
		return "inf"
	}
	r := float64(updates) / d.Seconds()
	switch {
	case r >= 1e6:
		return fmt.Sprintf("%.2fM", r/1e6)
	case r >= 1e3:
		return fmt.Sprintf("%.1fK", r/1e3)
	default:
		return fmt.Sprintf("%.0f", r)
	}
}

// mib formats a byte count in MiB.
func mib(b int64) string { return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20)) }
