package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	gz "graphzeppelin"
	"graphzeppelin/benchmark/layers"
	"graphzeppelin/benchmark/workload"
)

// diskNodesPerGroup is disk-social's sketch-store grouping. The default
// sizes a group toward the 16 KiB block, which at this scale is a single
// node (a node sketch is larger than a block): group-aligned gutter
// flushes then do nothing and the bulk phase hits the cache only when a
// hub's gutter refills while it is still resident (hit ratio about 0.1).
// Four nodes per group puts the grouped flush and both cache outcomes on
// the ingest path, which is what this workload is for.
const diskNodesPerGroup = 4

// engineRun drives the four single-engine workloads. They share the
// lifecycle set-up -> bulk -> serve and differ in the options the graph
// is built with; durable-recover adds seals and a recovery in between.
type engineRun struct {
	*child
	graph *gz.Graph
	ings  []*gz.Ingestor
	// cacheBytes is disk-social's cache budget: an eighth of the store.
	cacheBytes int64

	coldRounds   []float64
	queryReadOps uint64
}

func (c *child) runEngine() error {
	r := &engineRun{child: c}
	n := c.in.NumNodes
	if c.plan.Workload == "disk-social" {
		r.cacheBytes = int64(n) * int64(slotBytes(n, c.plan.Seed)) / 8
	}
	if err := r.setup(); err != nil {
		return err
	}
	if err := r.open(filepath.Join(c.plan.WorkDir, "main")); err != nil {
		return err
	}
	var err error
	if c.plan.Workload == "durable-recover" {
		err = r.durableBulk()
	} else {
		err = r.bulk()
	}
	if err != nil {
		return err
	}
	if err := r.serve(); err != nil {
		return err
	}
	r.queryUnchanged()
	return r.close()
}

// options returns the workload's graph options, rooted at dir.
func (r *engineRun) options(dir string) []gz.Option {
	opts := []gz.Option{gz.WithSeed(r.plan.Seed), gz.WithShards(r.plan.Procs)}
	switch r.plan.Workload {
	case "disk-social":
		opts = append(opts, gz.WithSketchesOnDisk(filepath.Join(dir, "store")), gz.WithCacheBytes(r.cacheBytes),
			gz.WithNodesPerGroup(diskNodesPerGroup))
	case "durable-recover":
		opts = append(opts, gz.WithWAL(filepath.Join(dir, "wal")))
	}
	return opts
}

// open builds the measured graph and one ingestor per producer.
func (r *engineRun) open(dir string) error {
	// The sketch store wants its directory to exist; the WAL makes its own.
	if err := os.MkdirAll(filepath.Join(dir, "store"), 0o755); err != nil {
		return err
	}
	g, err := gz.New(r.in.NumNodes, r.options(dir)...)
	if err != nil {
		return err
	}
	return r.adopt(g)
}

func (r *engineRun) adopt(g *gz.Graph) error {
	r.graph = g
	r.ings = r.ings[:0]
	for p := 0; p < r.plan.Procs; p++ {
		ing, err := g.NewIngestor()
		if err != nil {
			return err
		}
		r.ings = append(r.ings, ing)
	}
	return nil
}

// setup measures setup_s: construct a graph exactly as the measured one
// is, up to its first accepted update, several times over.
func (r *engineRun) setup() error {
	for i := 0; i < setupCycles; i++ {
		dir := filepath.Join(r.plan.WorkDir, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		if err := r.open(dir); err != nil {
			return err
		}
		if err := r.ings[0].ApplyBatch(r.in.Updates[:1]); err != nil {
			return err
		}
		if err := r.ings[0].Flush(); err != nil {
			return err
		}
		r.sample("setup_s", time.Since(t0))
		if err := r.graph.Close(); err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		releaseMemory() // a closed graph must not count towards peak RSS
	}
	r.graph, r.ings = nil, nil
	r.setMedian("setup_s", 1e-3)
	return nil
}

// applyRange feeds ups[lo:hi] through one ingestor in batchLen batches,
// calling after (if not nil) with each batch's length.
func (r *engineRun) applyRange(ing *gz.Ingestor, lo, hi, parent int, after func(int)) {
	ups := r.in.Updates
	for off := lo; off < hi; off += batchLen {
		end := min(off+batchLen, hi)
		r.span("api.Ingestor.ApplyBatch", parent, func() error { return ing.ApplyBatch(ups[off:end]) })
		if after != nil {
			after(end - off)
		}
	}
	// A short last batch sits in the session buffer; push it on.
	if err := ing.Flush(); err != nil {
		r.fail("api.Ingestor.Flush: %v", err)
	}
}

// applyParallel splits ups[lo:hi] evenly over the producers and waits
// for all of them.
func (r *engineRun) applyParallel(lo, hi, parent int, after func(int)) {
	if len(r.ings) == 1 {
		r.applyRange(r.ings[0], lo, hi, parent, after)
		return
	}
	var wg sync.WaitGroup
	for p, ing := range r.ings {
		plo, phi := workload.SliceBounds(hi-lo, len(r.ings), p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.applyRange(ing, lo+plo, lo+phi, parent, after)
		}()
	}
	wg.Wait()
}

// bulk runs the multi-pass bulk phase: every producer streams its share
// of the pass BulkPasses times over, rewriting its share's types between
// passes so each pass stays well formed, and a final Flush lands
// whatever the gutters still hold.
func (r *engineRun) bulk() error {
	phase := r.rec.Begin("phase.bulk", r.root)
	n := len(r.in.Updates)
	t0 := time.Now()
	var wg sync.WaitGroup
	for p, ing := range r.ings {
		lo, hi := workload.SliceBounds(n, len(r.ings), p)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 1; pass <= r.plan.BulkPasses; pass++ {
				if pass > 1 {
					r.flipRange(lo, hi)
				}
				r.applyRange(ing, lo, hi, phase, nil)
			}
		}()
	}
	wg.Wait()
	r.drainAndReport(phase, t0, r.plan.BulkPasses*n, true)
	r.rec.End(phase)
	// The graph now holds the odd pass's final edge set.
	r.query("first", r.root)
	return nil
}

// drainAndReport ends a bulk phase: the final Flush, then ingest_mups
// and the batch counters, which separate batches a full gutter emitted
// from the ones the Flush forced out.
func (r *engineRun) drainAndReport(phase int, t0 time.Time, updates int, checkFill bool) {
	before := r.graph.Stats()
	drain := r.span("core.Graph.Flush", phase, r.graph.Flush)
	wall := time.Since(t0)
	after := r.graph.Stats()

	m := r.res.Metrics
	m["ingest_mups"] = float64(updates) / wall.Seconds() / 1e6
	r.res.Aux["bulk_wall_s"] = wall.Seconds()
	r.res.Aux["bulk_updates"] = float64(updates)
	r.res.Aux["flush_batches"] = float64(after.Batches - before.Batches)
	m["core.drain_ms"] = float64(drain.Nanoseconds()) / 1e6
	m["core.batches"] = float64(after.Batches)
	if after.Batches > 0 {
		m["core.updates_per_batch"] = 2 * float64(updates) / float64(after.Batches)
		m["core.fill_emit_ratio"] = float64(before.Batches) / float64(after.Batches)
	}
	var most, sum uint64
	for _, b := range after.ShardBatches {
		most = max(most, b)
		sum += b
	}
	if sum > 0 {
		m["core.shard_skew"] = float64(most) * float64(len(after.ShardBatches)) / float64(sum)
	}
	// The cache's hit ratio is taken over the bulk phase alone: in the
	// serve phase every slice is flushed out as one small batch per
	// touched node, nearly all misses, which says nothing about ingest.
	if cache := after.SketchCache; cache.Hits+cache.Misses > 0 {
		r.res.Aux["cache_misses"] = float64(cache.Misses)
		m["diskstore.cache_hit_ratio"] = float64(cache.Hits) / float64(cache.Hits+cache.Misses)
		if hr := m["diskstore.cache_hit_ratio"]; hr < 0.2 || hr > 0.95 {
			r.res.sizing("bulk-phase cache hit ratio %.3f is outside 0.2-0.95: one of hit and miss cost does not matter", hr)
		}
	}
	if checkFill && m["core.fill_emit_ratio"] < 2.0/3 {
		r.res.sizing("only %.2f of the bulk phase's batches came from a full gutter (want >= 2/3): the run is too short", m["core.fill_emit_ratio"])
	}
}

// query times one ConnectedComponents, records the answer's hash, and
// checks from the Stats deltas that the engine answered by the path the
// schedule intends: "cold" after a slice (delta-eligible, but too much
// changed), "delta" after a trickle, "first" with no cached baseline.
func (r *engineRun) query(want string, parent int) time.Duration {
	before := r.graph.Stats()
	var rep []uint32
	d := r.span("core.Graph.ConnectedComponents/"+want, parent, func() error {
		var err error
		rep, _, err = r.graph.ConnectedComponents()
		return err
	})
	after := r.graph.Stats()
	r.recordAnswer(rep)
	deltas := after.DeltaQueries - before.DeltaQueries
	fallbacks := after.DeltaFallbacks - before.DeltaFallbacks
	switch want {
	case "cold":
		if fallbacks != 1 || deltas != 0 {
			r.fail("answer %d: a slice query did not count as a delta fallback (delta %d, fallback %d)", len(r.res.Hashes)-1, deltas, fallbacks)
		}
		r.sample("query_cold_ms", d)
		r.coldRounds = append(r.coldRounds, float64(after.QueryRounds))
		r.queryReadOps += after.SketchIO.ReadOps - before.SketchIO.ReadOps
	case "delta":
		if deltas != 1 || fallbacks != 0 {
			r.fail("answer %d: a trickle query did not count as a delta query (delta %d, fallback %d)", len(r.res.Hashes)-1, deltas, fallbacks)
		}
		r.sample("query_delta_ms", d)
	}
	return d
}

// trickle hands one trickle batch to the ingest API.
func (r *engineRun) trickle(i, parent int) {
	ing := r.ings[0]
	r.span("api.Ingestor.ApplyBatch/trickle", parent, func() error {
		if err := ing.ApplyBatch(r.in.Trickles[i]); err != nil {
			return err
		}
		return ing.Flush()
	})
}

// serve runs one more pass cut into slices: a cold query after each
// slice, then a trickle and a delta query.
func (r *engineRun) serve() error {
	n := len(r.in.Updates)
	r.flipRange(0, n) // the serve pass follows an odd number of passes
	first := len(r.in.Trickles) - serveSlices
	phase := r.rec.Begin("phase.serve", r.root)
	updates := 0
	for i := 0; i < serveSlices; i++ {
		t0 := time.Now()
		lo, hi := workload.SliceBounds(n, serveSlices, i)
		r.applyParallel(lo, hi, phase, nil)
		r.query("cold", phase)
		tf := time.Now()
		r.trickle(first+i, phase)
		if i == 0 {
			// One look at the dirty set in front of a trickle query; it
			// needs the trickle applied, so this one query's flush runs
			// outside its timing.
			if err := r.graph.Flush(); err != nil {
				return err
			}
			r.res.Metrics["core.query.dirty_nodes"] = float64(r.graph.Stats().DirtyNodes)
		}
		r.query("delta", phase)
		r.sample("fresh_ms", time.Since(tf))
		r.sample("serve_cycle_ms", time.Since(t0))
		updates += hi - lo + len(r.in.Trickles[first+i])
	}
	r.rec.End(phase)
	r.res.Metrics["serve_mups"] = float64(updates) / serveSlices / median(r.samples["serve_cycle_ms"]) / 1e3
	r.setMedian("query_cold_ms", 1)
	r.setTrickleMedian("query_delta_ms")
	r.setTrickleMedian("fresh_ms")
	r.res.Metrics["core.query.cold_p90_ms"] = quantile(r.samples["query_cold_ms"], 0.9)
	r.res.Metrics["core.query.delta_p90_ms"] = quantile(r.samples["query_delta_ms"], 0.9)
	r.res.Metrics["core.query.rounds"] = mean(r.coldRounds)
	return nil
}

// queryUnchanged times queries against the unchanged graph, which the
// epoch cache must answer, and reads the run's query counters.
func (r *engineRun) queryUnchanged() {
	before := r.graph.Stats().QueryCacheHits
	t0 := time.Now()
	for i := 0; i < cachedQueries; i++ {
		if _, _, err := r.graph.ConnectedComponents(); err != nil {
			r.fail("cached query: %v", err)
			break
		}
	}
	r.res.Metrics["core.query.cached_ns"] = float64(time.Since(t0).Nanoseconds()) / cachedQueries
	st := r.graph.Stats()
	if hits := st.QueryCacheHits - before; hits != cachedQueries {
		r.fail("%d of %d queries on an unchanged graph hit the cache", hits, cachedQueries)
	}
	m := r.res.Metrics
	m["core.query.cache_hits"] = float64(st.QueryCacheHits)
	m["core.query.delta_queries"] = float64(st.DeltaQueries)
	m["core.query.delta_fallbacks"] = float64(st.DeltaFallbacks)
	m["core.rebalances"] = float64(st.Rebalances)
	m["core.foreign_batches"] = float64(st.ForeignBatches)
}

// close closes the graph, reads the whole-lifecycle device and cache
// counters, and in a traced run replays the layers this workload uses.
func (r *engineRun) close() error {
	for _, ing := range r.ings {
		if err := ing.Close(); err != nil {
			return err
		}
	}
	if err := r.graph.Close(); err != nil {
		return err
	}
	st := r.graph.Stats()
	m := r.res.Metrics
	if r.plan.Workload == "disk-social" {
		io, cache := st.SketchIO, st.SketchCache
		m["disk_blocks_per_update"] = float64(io.TotalBlocks()) / float64(st.Updates)
		m["iomodel.read_ops"] = float64(io.ReadOps)
		m["iomodel.write_ops"] = float64(io.WriteOps)
		m["iomodel.read_blocks"] = float64(io.ReadBlocks)
		m["iomodel.write_blocks"] = float64(io.WriteBlocks)
		m["iomodel.query_read_ops"] = float64(r.queryReadOps)
		m["diskstore.cache_evictions"] = float64(cache.Evictions)
		m["diskstore.cache_writebacks"] = float64(cache.WriteBacks)
	}
	if r.rec == nil {
		return nil
	}
	return r.replays()
}

// replays runs the standalone layer replays of the ingest path.
func (r *engineRun) replays() error {
	g := r.geometry()
	m := r.res.Metrics
	m["hashing.mix64_ns"] = layers.Mix64(g)
	m["cubesketch.slab_apply_ns_per_index"] = layers.SlabApply(g)
	m["cubesketch.query_ns"] = layers.SketchQuery(g)
	var err error
	if m["cubesketch.merge_ns_per_sketch"], err = layers.MergeSerialized(g); err != nil {
		return err
	}
	if m["gutter.leaf_insert_ns_per_update"], m["gutter.leaf_flush_ns_per_batch"], m["gutter.spsc_ns_per_batch"], err = layers.Gutter(g, batchLen); err != nil {
		return err
	}
	if m["api.ingestor_ns_per_update"], err = layers.IngestorOverhead(g, batchLen); err != nil {
		return err
	}
	dir := filepath.Join(r.plan.WorkDir, "replay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	switch r.plan.Workload {
	case "disk-social":
		if m["diskstore.cache_apply_hit_ns"], m["diskstore.cache_apply_miss_ns"], err = layers.CacheApply(g, dir); err != nil {
			return err
		}
	case "durable-recover":
		if m["wal.append_ns_per_update"], m["wal.replay_ns_per_update"], err = layers.WAL(g, dir, gz.FsyncBatch, batchLen); err != nil {
			return err
		}
		if m["stream.decode_ns_per_update"], _, _, err = layers.Codec(g, batchLen); err != nil {
			return err
		}
	}
	return nil
}

// durableBulk is durable-recover's bulk phase and recovery. Producers
// log and ingest the first 80 % of the bulk volume while a full
// checkpoint is saved under them halfway there; a second, quiet full
// checkpoint becomes the chain base; ckptTrickles rounds of trickle +
// delta checkpoint build the chain; the last 20 % of the volume reaches
// only the log. Then the graph is dropped and RecoverChain rebuilds it
// from base, chain and log suffix.
//
// The delta seals follow trickles, not slices of the dense pass: 5 % of
// a dense pass touches every node, and a seal that dirty falls back to a
// full checkpoint, which would leave no chain to recover.
func (r *engineRun) durableBulk() error {
	dir := filepath.Join(r.plan.WorkDir, "main")
	base := filepath.Join(dir, "base.gze")
	n, passes := len(r.in.Updates), r.plan.BulkPasses
	volume := passes * n
	chainMark := n - volume*20/100 // position in the last pass; the plan keeps it >= 0
	midMark := int64(volume-n+chainMark) / 2
	m := r.res.Metrics

	phase := r.rec.Begin("phase.bulk", r.root)
	t0 := time.Now()
	var applied atomic.Int64
	mid := make(chan struct{})
	var once sync.Once
	producers := make(chan struct{})
	go func() {
		defer close(producers)
		count := func(k int) {
			if applied.Add(int64(k)) >= midMark {
				once.Do(func() { close(mid) })
			}
		}
		for pass := 1; pass < passes; pass++ {
			r.applyParallel(0, n, phase, count)
			r.flipRange(0, n)
		}
		r.applyParallel(0, chainMark, phase, count)
	}()
	<-mid
	full := r.span("core.Graph.SaveCheckpoint/live", phase, func() error { return r.graph.SaveCheckpoint(base) })
	m["core.ckpt.full_ms"] = float64(full.Nanoseconds()) / 1e6
	m["core.ckpt.stall_ms"] = float64(r.graph.Stats().CheckpointStallNanos) / 1e6
	<-producers

	r.span("core.Graph.SaveCheckpoint/quiet", phase, func() error { return r.graph.SaveCheckpoint(base) })
	if fi, err := os.Stat(base); err == nil {
		m["core.ckpt.full_bytes"] = float64(fi.Size())
	}
	var deltas []string
	var deltaBytes []float64
	prev := r.graph.CheckpointID()
	for k := 0; k < ckptTrickles; k++ {
		r.trickle(k, phase)
		path := filepath.Join(dir, fmt.Sprintf("delta-%02d.gzd", k))
		d := r.span("core.Graph.WriteDeltaCheckpoint", phase, func() error {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			isDelta, err := r.graph.WriteDeltaCheckpoint(f, prev)
			if err == nil && !isDelta {
				err = errors.New("the seal fell back to a full checkpoint")
			}
			if err == nil {
				err = f.Sync()
			}
			return errors.Join(err, f.Close())
		})
		r.sample("ckpt_delta_ms", d)
		prev = r.graph.CheckpointID()
		deltas = append(deltas, path)
		if fi, err := os.Stat(path); err == nil {
			deltaBytes = append(deltaBytes, float64(fi.Size()))
		}
	}
	r.setMedian("ckpt_delta_ms", 1)
	m["core.ckpt.delta_bytes"] = mean(deltaBytes)

	r.applyParallel(chainMark, n, phase, nil)
	// The seals drain the gutters before they fill, so there is no fill
	// ratio to check: this workload's batches are forced out.
	r.drainAndReport(phase, t0, volume+ckptTrickles*r.plan.TrickleLen, false)
	r.rec.End(phase)

	wal := r.graph.Stats().WAL
	m["wal.appends"] = float64(wal.Appends)
	m["wal.fsyncs"] = float64(wal.Fsyncs)
	if wal.GroupCommits > 0 {
		m["wal.group_commit_size"] = float64(wal.Appends) / float64(wal.GroupCommits)
	}
	if wal.Updates > 0 {
		m["wal.bytes_per_update"] = float64(wal.Bytes) / float64(wal.Updates)
	}

	// Drop the graph, as a restart would, and give its memory back so
	// the recovered graph does not stack on top of it in peak RSS.
	for _, ing := range r.ings {
		if err := ing.Close(); err != nil {
			return err
		}
	}
	if err := r.graph.Close(); err != nil {
		return err
	}
	r.graph, r.ings = nil, nil
	releaseMemory()

	restore := r.span("core.OpenCheckpoint", r.root, func() error {
		g, err := gz.OpenCheckpoint(base, gz.WithShards(r.plan.Procs))
		if err != nil {
			return err
		}
		return g.Close()
	})
	m["core.ckpt.restore_ms"] = float64(restore.Nanoseconds()) / 1e6
	releaseMemory()

	phase = r.rec.Begin("phase.recover", r.root)
	t0 = time.Now()
	var rec *gz.Recovery
	replay := r.span("core.RecoverChain", phase, func() error {
		g, got, err := gz.RecoverChain(r.in.NumNodes, base, deltas, r.options(dir)...)
		if err != nil {
			return err
		}
		rec = got
		return r.adopt(g)
	})
	if rec == nil {
		return errors.New("durable-recover: RecoverChain failed, nothing to serve from")
	}
	r.query("first", phase)
	m["recover_s"] = time.Since(t0).Seconds()
	r.rec.End(phase)
	m["core.recover.replay_updates"] = float64(rec.Updates)
	m["core.recover.replay_mups"] = float64(rec.Updates) / replay.Seconds() / 1e6
	if rec.DeltaFiles != ckptTrickles {
		r.fail("RecoverChain applied %d of %d delta files", rec.DeltaFiles, ckptTrickles)
	}
	if rec.Updates < uint64(volume/10) {
		r.res.sizing("RecoverChain replayed %d updates from the WAL, under 10 %% of the %d ingested", rec.Updates, volume)
	}
	return nil
}
