package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphzeppelin/benchmark/layers"
	"graphzeppelin/benchmark/trace"
	"graphzeppelin/benchmark/workload"
	"graphzeppelin/internal/core"
	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/stream"
)

// childEnv names the environment variable that turns the binary into a
// measured child: its value is the path of the plan to run.
const childEnv = "GZBENCH_PLAN"

// child is the state every workload's measured process shares: the plan,
// the loaded inputs, the span recorder (nil in an untraced run) and the
// result being filled in.
type child struct {
	plan Plan
	in   workload.Inputs
	rec  *trace.Recorder
	root int
	res  *Result

	mu      sync.Mutex // guards res.Failed/Failures from producer goroutines
	ops     atomic.Int64
	samples map[string][]float64 // timing samples in milliseconds, by metric
}

// childMain runs the plan at path and writes result.json next to it.
func childMain(path string) error {
	var plan Plan
	if err := readJSON(path, &plan); err != nil {
		return err
	}
	in, err := workload.Load(plan.InputDir, plan.TrickleLen)
	if err != nil {
		return err
	}
	c := &child{
		plan:    plan,
		in:      in,
		res:     &Result{Metrics: map[string]float64{}, Aux: map[string]float64{}, Samples: map[string]int{}},
		samples: map[string][]float64{},
	}
	if plan.Traced {
		c.rec = trace.New(plan.Workload)
	}
	c.root = c.rec.Begin("workload."+plan.Workload, trace.Root)
	if plan.Workload == "cluster-refresh" {
		err = c.runCluster()
	} else {
		err = c.runEngine()
	}
	if err != nil {
		return err
	}
	c.rec.End(c.root)
	if err := c.finish(); err != nil {
		return err
	}
	return writeJSON(filepath.Join(filepath.Dir(path), "result.json"), c.res)
}

// fail counts one failed operation; safe from any goroutine.
func (c *child) fail(format string, args ...any) {
	c.mu.Lock()
	c.res.fail(format, args...)
	c.mu.Unlock()
}

// span runs fn inside a span and returns its wall time. An error counts
// as a failed operation; every call counts as an attempted one.
func (c *child) span(name string, parent int, fn func() error) time.Duration {
	id := c.rec.Begin(name, parent)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	c.rec.End(id)
	c.ops.Add(1)
	if err != nil {
		c.fail("%s: %v", name, err)
	}
	return d
}

// recordAnswer appends the hash of one answer's partition; an answer
// that failed keeps its place in the order with hash 0.
func (c *child) recordAnswer(rep []uint32) {
	var hash uint64
	if len(rep) == int(c.in.NumNodes) {
		hash = workload.PartitionHash(rep)
	}
	c.res.Hashes = append(c.res.Hashes, hash)
}

// sample records one timing sample, in milliseconds, for a metric.
func (c *child) sample(metric string, d time.Duration) {
	c.samples[metric] = append(c.samples[metric], float64(d.Nanoseconds())/1e6)
}

// setMedian reports the median of a metric's samples, scaled (1 keeps
// milliseconds), and its sample count.
func (c *child) setMedian(metric string, scale float64) {
	c.res.Metrics[metric] = median(c.samples[metric]) * scale
	c.res.Samples[metric] = len(c.samples[metric])
}

// setTrickleMedian reports a metric sampled once per trickle. Trickles
// alternate attach and detach, and the two can cost very different
// amounts (a detach deletes an edge of the cached spanning forest, an
// attach never does), so one median over all samples would sit between
// two modes and jump from one to the other. The two kinds get a median
// each, and the metric is the mean of the two.
func (c *child) setTrickleMedian(metric string) {
	xs := c.samples[metric]
	var attach, detach []float64
	for i, x := range xs {
		if i%2 == 0 {
			attach = append(attach, x)
		} else {
			detach = append(detach, x)
		}
	}
	c.res.Metrics[metric] = (median(attach) + median(detach)) / 2
	c.res.Samples[metric] = len(xs)
}

// flipRange rewrites ups[lo:hi] for the next pass.
func (c *child) flipRange(lo, hi int) {
	workload.FlipTypes(c.in.Updates, c.in.Flip, lo, hi)
}

// slotBytes is the serialized size of one node's sketch stack under the
// engine's default geometry.
func slotBytes(numNodes uint32, seed uint64) int {
	sketch := cubesketch.New(stream.VectorLen(uint64(numNodes)), cubesketch.DefaultColumns, seed)
	return sketch.SerializedSize() * core.DefaultRounds(numNodes)
}

// gutterCap is the engine's default leaf gutter capacity in updates:
// half a node sketch's bytes at four bytes per buffered endpoint.
func gutterCap(numNodes uint32, seed uint64) int { return slotBytes(numNodes, seed) / 8 }

func (c *child) geometry() layers.Geometry {
	return layers.Geometry{
		NumNodes:  c.in.NumNodes,
		Seed:      c.plan.Seed,
		GutterCap: gutterCap(c.in.NumNodes, c.plan.Seed),
		Budget:    time.Duration(c.plan.ReplayMillis) * time.Millisecond,
	}
}

// finish fills in what every workload reports the same way: operation
// counts, peak RSS, and for a traced run the span table and trace.json.
func (c *child) finish() error {
	c.res.Attempted = int(c.ops.Load())
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	c.res.Metrics["rss_peak_mib"] = rss
	if c.rec == nil {
		return nil
	}
	spans := c.rec.Spans()
	c.res.Spans = map[string]SpanTotal{}
	for name, t := range trace.ByName(spans) {
		c.res.Spans[name] = SpanTotal{Count: t.Count, TotalMs: float64(t.Nanos) / 1e6, SelfMs: float64(t.SelfNanos) / 1e6}
	}
	return c.rec.WriteFile(filepath.Join(c.plan.WorkDir, "trace.json"))
}

// spanMillis returns the durations, in milliseconds, of the traced run's
// spans of one name.
func (c *child) spanMillis(name string) []float64 {
	var out []float64
	for _, s := range c.rec.Spans() {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// releaseMemory returns freed memory to the operating system, so that
// what a closed graph held does not stack under the next one in the peak
// RSS. Call it outside timed sections only.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscan(strings.TrimSuffix(strings.TrimSpace(rest), "kB"), &kib); err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
