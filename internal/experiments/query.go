package experiments

import (
	"fmt"
	"time"

	"graphzeppelin/internal/core"
	"graphzeppelin/internal/kron"
	"graphzeppelin/internal/stream"
)

// queryLatencies ingests res into eng, issuing a connectivity query every
// 10% of the stream, and returns the per-query latencies plus the overall
// ingestion duration (query time excluded).
func queryLatencies(res kron.Result, cfg core.Config) ([]time.Duration, time.Duration, error) {
	cfg.NumNodes = res.NumNodes
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, 0, err
	}
	defer eng.Close()
	every := len(res.Updates) / 10
	if every == 0 {
		every = 1
	}
	var lats []time.Duration
	var ingest time.Duration
	chunkStart := time.Now()
	for i, u := range res.Updates {
		if err := eng.Update(u); err != nil {
			return nil, 0, err
		}
		if (i+1)%every == 0 {
			// Drain before starting the query timer: flushing the gutters
			// is ingestion work the engine deferred, and the explicit
			// baselines carry no buffer, so charging it to query latency
			// would skew the Figure 16 comparison.
			if err := eng.Drain(); err != nil {
				return nil, 0, err
			}
			ingest += time.Since(chunkStart)
			qs := time.Now()
			if _, err := eng.SpanningForest(); err != nil {
				return nil, 0, err
			}
			lats = append(lats, time.Since(qs))
			chunkStart = time.Now()
		}
	}
	ingest += time.Since(chunkStart)
	return lats, ingest, nil
}

// baselineQueryLatencies does the same for an explicit baseline.
func baselineQueryLatencies(res kron.Result, newSys func() interface {
	Apply(stream.Update)
	ConnectedComponents() ([]uint32, int)
}) []time.Duration {
	g := newSys()
	every := len(res.Updates) / 10
	if every == 0 {
		every = 1
	}
	var lats []time.Duration
	for i, u := range res.Updates {
		g.Apply(u)
		if (i+1)%every == 0 {
			qs := time.Now()
			g.ConnectedComponents()
			lats = append(lats, time.Since(qs))
		}
	}
	return lats
}

// Fig16 regenerates Figure 16: query latency at every 10% of the stream
// for GraphZeppelin (small 100-update buffers, per the paper) against the
// explicit baselines, in-RAM (16a) and with GZ sketches on the block
// device (16b).
func Fig16(o Options) (*Table, error) {
	o = o.withDefaults()
	scale := o.MaxScale - 1
	if scale < 8 {
		scale = 8
	}
	res := KronStream(scale, o.Seed)
	t := &Table{
		ID:     "fig16",
		Title:  fmt.Sprintf("Query latency every 10%% of the stream (kron%d)", scale),
		Header: []string{"progress", "GZ in-RAM", "GZ on-disk", "Aspen-like", "Terrace-like"},
		Notes: []string{
			"expected shape: GZ latency ~flat in stream progress (density);",
			"explicit baselines grow as the graph densifies",
		},
	}

	// The paper uses tiny 400-byte buffers (≈100 updates) for this
	// experiment so queries are not dominated by buffer flushing.
	smallBuffers := func(onDisk bool) core.Config {
		return core.Config{
			Seed: o.Seed, Workers: 2,
			BufferFactor:   0.002,
			SketchesOnDisk: onDisk,
		}
	}
	gzRAM, _, err := queryLatencies(res, smallBuffers(false))
	if err != nil {
		return nil, err
	}
	o.logf("fig16: GZ in-RAM done")
	gzDisk, _, err := queryLatencies(res, smallBuffers(true))
	if err != nil {
		return nil, err
	}
	o.logf("fig16: GZ on-disk done")
	asp := baselineQueryLatencies(res, func() interface {
		Apply(stream.Update)
		ConnectedComponents() ([]uint32, int)
	} {
		return newAspenAdapter(res.NumNodes)
	})
	ter := baselineQueryLatencies(res, func() interface {
		Apply(stream.Update)
		ConnectedComponents() ([]uint32, int)
	} {
		return newTerraceAdapter(res.NumNodes)
	})
	o.logf("fig16: baselines done")

	for i := 0; i < len(gzRAM); i++ {
		row := []string{fmt.Sprintf("%d%%", (i+1)*10)}
		for _, lats := range [][]time.Duration{gzRAM, gzDisk, asp, ter} {
			if i < len(lats) {
				row = append(row, fmt.Sprintf("%.1fms", float64(lats[i].Microseconds())/1000))
			} else {
				row = append(row, "-")
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// QuerySweep characterizes the query subsystem on a kron stream: cold
// full-query latency (cache invalidated by a toggle before each run,
// delta maintenance disabled so the run really is from scratch),
// incremental-query latency at a sweep of dirty fractions, epoch-cached
// point-query latency through Connected and ConnectedMany, and the
// disk-mode scan's I/O — sequential range reads per full query against
// the NumNodes point reads of a per-node scan.
func QuerySweep(o Options) (*Table, error) {
	o = o.withDefaults()
	scale := o.MaxScale - 1
	if scale < 8 {
		scale = 8
	}
	res := KronStream(scale, o.Seed)
	t := &Table{
		ID:     "query",
		Title:  fmt.Sprintf("Query subsystem: cold vs cached vs incremental vs on-disk scan (kron%d)", scale),
		Header: []string{"metric", "deltafrac", "value"},
		Notes: []string{
			"cached point queries run O(1) off the last full query's representatives;",
			"incremental queries re-solve only the components dirtied since the cached forest;",
			"disk-mode full queries scan live slots sequentially (Lemma 5), not per node",
		},
	}
	const trials = 5
	const pairs = 4096

	run := func(onDisk bool) (cold time.Duration, readOps, readBlocks uint64, err error) {
		cfg := core.Config{NumNodes: res.NumNodes, Seed: o.Seed, Workers: 2, SketchesOnDisk: onDisk,
			NoDeltaQuery: true}
		eng, err := core.NewEngine(cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		defer eng.Close()
		for _, u := range res.Updates {
			if err := eng.Update(u); err != nil {
				return 0, 0, 0, err
			}
		}
		var total time.Duration
		readOps, readBlocks = 0, 0
		for i := 0; i < trials; i++ {
			// Toggle one edge so every trial is a genuine cold query, and
			// drain before snapshotting stats so the toggle's sketch-apply
			// I/O stays out of the measured query delta.
			if err := eng.InsertEdge(0, 1); err != nil {
				return 0, 0, 0, err
			}
			if err := eng.Drain(); err != nil {
				return 0, 0, 0, err
			}
			before := eng.Stats().SketchIO
			start := time.Now()
			if _, err := eng.SpanningForest(); err != nil {
				return 0, 0, 0, err
			}
			total += time.Since(start)
			after := eng.Stats().SketchIO
			readOps += after.ReadOps - before.ReadOps
			readBlocks += after.ReadBlocks - before.ReadBlocks
		}
		return total / trials, readOps / trials, readBlocks / trials, nil
	}

	coldRAM, _, _, err := run(false)
	if err != nil {
		return nil, err
	}
	o.logf("query: RAM cold queries done")
	coldDisk, readOps, readBlocks, err := run(true)
	if err != nil {
		return nil, err
	}
	o.logf("query: disk cold queries done")

	// Cached point queries on a quiet RAM engine.
	eng, err := core.NewEngine(core.Config{NumNodes: res.NumNodes, Seed: o.Seed, Workers: 2})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	for _, u := range res.Updates {
		if err := eng.Update(u); err != nil {
			return nil, err
		}
	}
	if _, err := eng.SpanningForest(); err != nil { // warm the cache
		return nil, err
	}
	batch := stream.RandomPairs(res.NumNodes, pairs, o.Seed)
	start := time.Now()
	for _, p := range batch {
		if _, err := eng.Connected(p.U, p.V); err != nil {
			return nil, err
		}
	}
	perConnected := time.Since(start) / pairs
	start = time.Now()
	if _, err := eng.ConnectedMany(batch); err != nil {
		return nil, err
	}
	manyTotal := time.Since(start)
	hits := eng.Stats().QueryCacheHits
	o.logf("query: cached point queries done")

	// Incremental sweep: dirty a controlled fraction of nodes (each toggled
	// edge (u, u+1) over fresh node pairs dirties exactly two nodes), then
	// time the next query — the delta path reuses the cached forest and
	// re-solves only the affected components. The engine above already
	// holds a warm cache; the cursor walks disjoint even-aligned pairs so
	// successive fractions never cancel each other's toggles.
	n := res.NumNodes
	cursor := uint32(0)
	deltaRows := [][]string{}
	for _, frac := range []float64{0.001, 0.01, 0.1} {
		k := int(frac * float64(n) / 2)
		if k < 1 {
			k = 1
		}
		var total time.Duration
		for i := 0; i < trials; i++ {
			for j := 0; j < k; j++ {
				u := cursor % (n - 1)
				u -= u % 2
				cursor += 2
				if err := eng.InsertEdge(u, u+1); err != nil {
					return nil, err
				}
			}
			if err := eng.Drain(); err != nil {
				return nil, err
			}
			start := time.Now()
			if _, err := eng.SpanningForest(); err != nil {
				return nil, err
			}
			total += time.Since(start)
		}
		deltaRows = append(deltaRows, []string{
			"incremental query, RAM",
			fmt.Sprintf("%.2g", float64(2*k)/float64(n)),
			fmt.Sprintf("%.3fms", float64((total/trials).Microseconds())/1000),
		})
	}
	dst := eng.Stats()
	o.logf("query: incremental sweep done (%d delta queries, %d fallbacks)",
		dst.DeltaQueries, dst.DeltaFallbacks)

	t.Rows = append(t.Rows,
		[]string{"cold full query, RAM", "-", fmt.Sprintf("%.3fms", float64(coldRAM.Microseconds())/1000)},
		[]string{"cold full query, on-disk", "-", fmt.Sprintf("%.3fms", float64(coldDisk.Microseconds())/1000)},
		[]string{"disk read ops per cold query", "-", fmt.Sprintf("%d (vs %d per-node point reads)", readOps, res.NumNodes)},
		[]string{"disk read blocks per cold query", "-", fmt.Sprintf("%d", readBlocks)},
	)
	t.Rows = append(t.Rows, deltaRows...)
	t.Rows = append(t.Rows,
		[]string{fmt.Sprintf("cached Connected × %d", pairs), "-", fmt.Sprintf("%dns/query", perConnected.Nanoseconds())},
		[]string{fmt.Sprintf("cached ConnectedMany(%d)", pairs), "-", fmt.Sprintf("%.3fms total", float64(manyTotal.Microseconds())/1000)},
		[]string{"query cache hits", "-", fmt.Sprintf("%d", hits)},
		[]string{"delta queries / fallbacks", "-", fmt.Sprintf("%d / %d", dst.DeltaQueries, dst.DeltaFallbacks)},
	)
	return t, nil
}
