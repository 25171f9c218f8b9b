package experiments

import (
	"fmt"
	"os"
	"time"

	"graphzeppelin/internal/core"
)

// Fig12 regenerates Figure 12: system behaviour when data structures live
// on disk. The paper RAM-limits all systems with cgroups; offline we run
// GraphZeppelin's genuine out-of-core modes (sketches on a block device,
// gutter-tree or leaf-only buffering) and, for the explicit baselines,
// report the modeled block-I/O count of Observation 1 — each update
// touches two random adjacency locations, so out-of-core they pay Ω(1)
// I/Os per update, which is why the paper measures them collapsing by two
// orders of magnitude.
func Fig12(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		ID:    "fig12",
		Title: "Out-of-core ingestion (sketches on block device) and CC query time",
		Header: []string{"dataset", "GZ gutter-tree rate", "GZ leaf-only rate", "GZ in-RAM rate",
			"disk/RAM", "CC time (tree)", "GZ block I/Os", "baseline modeled I/Os"},
		Notes: []string{
			"expected shape: disk rate within ~29% of RAM rate; GZ block I/Os orders of",
			"magnitude below the per-update Ω(N) the explicit baselines require out-of-core",
		},
	}
	for scale := 8; scale <= o.MaxScale; scale++ {
		res := KronStream(scale, o.Seed)
		n := len(res.Updates)
		dir, err := os.MkdirTemp("", "gz-fig12-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)

		engTree, treeDur, err := runGZ(res, core.Config{
			Seed: o.Seed, Shards: 2, Dir: dir,
			SketchesOnDisk: true, Buffering: core.BufferTree,
		})
		if err != nil {
			return nil, err
		}
		qStart := time.Now()
		if _, err := engTree.SpanningForest(); err != nil {
			engTree.Close()
			return nil, err
		}
		ccDur := time.Since(qStart)
		stTree := engTree.Stats()
		engTree.Close()

		engLeaf, leafDur, err := runGZ(res, core.Config{
			Seed: o.Seed, Shards: 2, Dir: dir,
			SketchesOnDisk: true, Buffering: core.BufferLeaf,
		})
		if err != nil {
			return nil, err
		}
		engLeaf.Close()

		engRAM, ramDur, err := runGZ(res, core.Config{Seed: o.Seed, Shards: 2})
		if err != nil {
			return nil, err
		}
		engRAM.Close()

		gzIOs := stTree.SketchIO.TotalBlocks() + stTree.BufferIO.TotalBlocks()
		// Observation 1: an explicit out-of-core system pays >= 1 block
		// I/O per update endpoint touched (2 per update), unbatchable
		// because updates land at hash-random adjacency locations.
		baselineIOs := uint64(2 * n)

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("kron%d", scale),
			rate(n, treeDur),
			rate(n, leafDur),
			rate(n, ramDur),
			fmt.Sprintf("%.0f%%", 100*treeDur.Seconds()/ramDur.Seconds()),
			fmt.Sprintf("%.3fs", ccDur.Seconds()),
			fmt.Sprintf("%d", gzIOs),
			fmt.Sprintf("%d", baselineIOs),
		})
		o.logf("fig12: kron%d done", scale)
	}
	return t, nil
}

// Fig15 regenerates Figure 15: ingestion rate as a function of the gutter
// size factor f, with sketches in RAM and on the block device.
func Fig15(o Options) (*Table, error) {
	o = o.withDefaults()
	scale := o.MaxScale - 1
	if scale < 8 {
		scale = 8
	}
	res := KronStream(scale, o.Seed)
	n := len(res.Updates)
	t := &Table{
		ID:     "fig15",
		Title:  fmt.Sprintf("Gutter size factor f vs ingestion rate (kron%d)", scale),
		Header: []string{"f", "in-RAM rate", "on-disk rate"},
		Notes: []string{
			"expected shape: rate climbs steeply with f then plateaus;",
			"the on-disk curve needs larger f to amortize sketch fetches",
		},
	}
	for _, f := range []float64{0.0001, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0} {
		engRAM, ramDur, err := runGZ(res, core.Config{Seed: o.Seed, Shards: 2, BufferFactor: f})
		if err != nil {
			return nil, err
		}
		engRAM.Close()
		engDisk, diskDur, err := runGZ(res, core.Config{
			Seed: o.Seed, Shards: 2, BufferFactor: f, SketchesOnDisk: true,
		})
		if err != nil {
			return nil, err
		}
		engDisk.Close()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%g", f),
			rate(n, ramDur),
			rate(n, diskDur),
		})
		o.logf("fig15: f=%g done", f)
	}
	return t, nil
}

// Fig14 regenerates Figure 14: ingestion rate as Graph Workers increase.
// Workers beyond the host's core count only time-slice one another, so
// the curve flattens at runtime.NumCPU(); on a single-core host it is
// flat from the start. The sweep still shows that adding workers never
// corrupts results.
func Fig14(o Options) (*Table, error) {
	o = o.withDefaults()
	scale := o.MaxScale - 1
	if scale < 8 {
		scale = 8
	}
	res := KronStream(scale, o.Seed)
	n := len(res.Updates)
	t := &Table{
		ID:     "fig14",
		Title:  fmt.Sprintf("Ingestion rate vs Graph Workers (kron%d)", scale),
		Header: []string{"workers", "rate", "speedup vs 1"},
		Notes: []string{
			"expected shape: near-linear scaling up to the core count",
			"(flat beyond the host's core count: extra workers only time-slice)",
		},
	}
	var base time.Duration
	for _, w := range []int{1, 2, 4, 8, 16} {
		eng, dur, err := runGZ(res, core.Config{Seed: o.Seed, Shards: w})
		if err != nil {
			return nil, err
		}
		eng.Close()
		if w == 1 {
			base = dur
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", w),
			rate(n, dur),
			fmt.Sprintf("%.2fx", base.Seconds()/dur.Seconds()),
		})
		o.logf("fig14: workers=%d done", w)
	}
	return t, nil
}
