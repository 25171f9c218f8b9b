package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// Fixed shape of every run; the input size comes from -scale and the
// pass count from -seconds.
const (
	batchLen      = 4096 // updates per ApplyBatch / Coordinator.Ingest call
	serveSlices   = 100  // serve phase: slices of one more pass, a cold query after each
	clusterCycles = 100  // cluster serve phase: trickle -> Flush -> Refresh -> query
	fullEvery     = 5    // cluster: a forced-full refresh every this many cycles
	ckptTrickles  = 20   // durable-recover: trickle + delta checkpoint rounds
	setupCycles   = 21   // construct+close cycles behind setup_s
	cachedQueries = 1000 // queries against the unchanged graph behind core.query.cached_ns
)

// Plan is what the parent hands a measured child process, as plan.json
// in the run's directory.
type Plan struct {
	Workload string
	Seed     uint64
	Traced   bool
	// InputDir holds the generated inputs; WorkDir is the child's own
	// scratch space (sketch store, WAL, checkpoints, trace.json).
	InputDir, WorkDir string
	Procs             int
	BulkPasses        int
	TrickleLen        int
	// ReplayMillis bounds each layer replay of a traced run.
	ReplayMillis int
}

// Result is what a child writes back as result.json.
type Result struct {
	Metrics map[string]float64
	// Aux carries raw counts the parent derives cross-run metrics from
	// (the ingest budget, trace overhead); they are not reported.
	Aux map[string]float64
	// Samples gives the sample count behind each timing median.
	Samples   map[string]int
	Attempted int
	Failed    int
	// Failures describes the first few failed operations and every
	// violated sizing check.
	Failures []string
	// Hashes are the canonical partition hashes of every answer, in the
	// workload's fixed order.
	Hashes []uint64
	// Spans summarises the traced run: per span name, count, total and
	// self time.
	Spans map[string]SpanTotal `json:",omitempty"`
}

// SpanTotal is one row of the per-span self-time table.
type SpanTotal struct {
	Count   int
	TotalMs float64
	SelfMs  float64
}

func (r *Result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// sizing records a violated sizing check: the run is too short, or its
// working set does not sit where the workload says it should.
func (r *Result) sizing(format string, args ...any) {
	r.Failures = append(r.Failures, "sizing: "+fmt.Sprintf(format, args...))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
