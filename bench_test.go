// Benchmarks regenerating the paper's evaluation artifacts (one family per
// table or figure, named BenchmarkFig<N>...) beside the subsystem
// benchmarks. `go test -bench=. -benchmem` runs laptop-scale versions;
// cmd/gzbench prints the full Section 6 tables, and benchmark/run.sh
// measures the system end to end.
package graphzeppelin_test

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"graphzeppelin"
	"graphzeppelin/internal/baseline/aspenlike"
	"graphzeppelin/internal/baseline/terracelike"
	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/experiments"
	"graphzeppelin/internal/kron"
	"graphzeppelin/internal/l0"
	"graphzeppelin/internal/stream"
)

// --- Figure 4: sketch update throughput ---

var fig4BenchLengths = []uint64{1e3, 1e6, 1e9, 1e10, 1e12}

func BenchmarkFig4CubeSketchUpdate(b *testing.B) {
	for _, n := range fig4BenchLengths {
		b.Run(fmt.Sprintf("len=1e%d", lenExp(n)), func(b *testing.B) {
			s := cubesketch.New(n, 0, 1)
			idxs := randomIndices(n, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(idxs[i%len(idxs)])
			}
		})
	}
}

func BenchmarkFig4StandardL0Update(b *testing.B) {
	for _, n := range fig4BenchLengths {
		b.Run(fmt.Sprintf("len=1e%d", lenExp(n)), func(b *testing.B) {
			s := l0.New(n, 0, 1)
			idxs := randomIndices(n, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(idxs[i%len(idxs)], 1)
			}
		})
	}
}

// --- Figure 5: sketch sizes (reported as metrics, not time) ---

func BenchmarkFig5SketchSizes(b *testing.B) {
	for _, n := range fig4BenchLengths {
		b.Run(fmt.Sprintf("len=1e%d", lenExp(n)), func(b *testing.B) {
			std := l0.New(n, 0, 1)
			cube := cubesketch.New(n, 0, 1)
			for i := 0; i < b.N; i++ {
				_ = cube.Bytes()
			}
			b.ReportMetric(float64(std.Bytes()), "stdB")
			b.ReportMetric(float64(cube.Bytes()), "cubeB")
			b.ReportMetric(float64(std.Bytes())/float64(cube.Bytes()), "ratio")
		})
	}
}

// --- Figures 11 & 13: system ingestion and memory on dense kron streams ---

const benchScale = 8

func benchStream() kron.Result { return experiments.KronStream(benchScale, 1) }

func BenchmarkFig13IngestGraphZeppelin(b *testing.B) {
	res := benchStream()
	g, err := graphzeppelin.New(res.NumNodes, graphzeppelin.WithSeed(1), graphzeppelin.WithShards(2))
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Apply(res.Updates[i%len(res.Updates)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := g.Stats()
	b.ReportMetric(float64(st.MemoryBytes), "memB")
}

func BenchmarkFig13IngestAspenLike(b *testing.B) {
	res := benchStream()
	g := aspenlike.New(res.NumNodes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Apply(res.Updates[i%len(res.Updates)])
	}
	b.StopTimer()
	b.ReportMetric(float64(g.Bytes()), "memB") // Figure 11's quantity
}

func BenchmarkFig13IngestTerraceLike(b *testing.B) {
	res := benchStream()
	g := terracelike.New(res.NumNodes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Apply(res.Updates[i%len(res.Updates)])
	}
	b.StopTimer()
	b.ReportMetric(float64(g.Bytes()), "memB")
}

func BenchmarkFig11MemoryFootprint(b *testing.B) {
	// Ingest the whole stream once, then report each system's footprint;
	// the timing loop is a no-op read so -benchmem noise stays out.
	res := benchStream()
	asp := aspenlike.New(res.NumNodes)
	ter := terracelike.New(res.NumNodes)
	for _, u := range res.Updates {
		asp.Apply(u)
		ter.Apply(u)
	}
	g, err := graphzeppelin.New(res.NumNodes, graphzeppelin.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	for _, u := range res.Updates {
		if err := g.Apply(u); err != nil {
			b.Fatal(err)
		}
	}
	gz := g.Stats().MemoryBytes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gz
	}
	b.ReportMetric(float64(asp.Bytes()), "aspenB")
	b.ReportMetric(float64(ter.Bytes()), "terraceB")
	b.ReportMetric(float64(gz), "gzB")
}

// --- Figure 12: out-of-core ingestion ---

func BenchmarkFig12OutOfCoreIngest(b *testing.B) {
	for _, buffering := range []struct {
		name string
		kind graphzeppelin.Buffering
	}{{"gutter-tree", graphzeppelin.GutterTree}, {"leaf-only", graphzeppelin.LeafGutters}} {
		b.Run(buffering.name, func(b *testing.B) {
			res := benchStream()
			g, err := graphzeppelin.New(res.NumNodes,
				graphzeppelin.WithSeed(1),
				graphzeppelin.WithShards(2),
				graphzeppelin.WithSketchesOnDisk(b.TempDir()),
				graphzeppelin.WithBuffering(buffering.kind),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.Apply(res.Updates[i%len(res.Updates)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := g.Stats()
			b.ReportMetric(float64(st.SketchIO.TotalBlocks()), "sketchIOblocks")
			b.ReportMetric(float64(st.BufferIO.TotalBlocks()), "bufferIOblocks")
		})
	}
}

// --- Figure 14: worker scaling ---

func BenchmarkFig14Workers(b *testing.B) {
	res := benchStream()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			g, err := graphzeppelin.New(res.NumNodes, graphzeppelin.WithSeed(1), graphzeppelin.WithShards(w))
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.Apply(res.Updates[i%len(res.Updates)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 15: gutter size factor ---

func BenchmarkFig15BufferFactor(b *testing.B) {
	res := benchStream()
	for _, f := range []float64{0.001, 0.01, 0.1, 0.5, 1.0} {
		b.Run(fmt.Sprintf("f=%g", f), func(b *testing.B) {
			g, err := graphzeppelin.New(res.NumNodes,
				graphzeppelin.WithSeed(1),
				graphzeppelin.WithShards(2),
				graphzeppelin.WithBufferFactor(f),
			)
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.Apply(res.Updates[i%len(res.Updates)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 16: query latency ---

func BenchmarkFig16QueryGraphZeppelin(b *testing.B) {
	res := benchStream()
	g, err := graphzeppelin.New(res.NumNodes, graphzeppelin.WithSeed(1), graphzeppelin.WithShards(2))
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	for _, u := range res.Updates {
		if err := g.Apply(u); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.SpanningForest(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16QueryAspenLike(b *testing.B) {
	res := benchStream()
	g := aspenlike.New(res.NumNodes)
	for _, u := range res.Updates {
		g.Apply(u)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ConnectedComponents()
	}
}

func BenchmarkFig16QueryTerraceLike(b *testing.B) {
	res := benchStream()
	g := terracelike.New(res.NumNodes)
	for _, u := range res.Updates {
		g.Apply(u)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ConnectedComponents()
	}
}

// --- Query subsystem: epoch cache and lazy per-round scan ---

// BenchmarkConnectedCached measures point queries on a quiet graph: after
// one warming full query, every Connected call is answered in O(1) from
// the epoch cache with no sketch work and no allocation. Smoke-run in CI;
// the repository benchmark's core.query.cached_ns times the same path.
func BenchmarkConnectedCached(b *testing.B) {
	res := benchStream()
	g, err := graphzeppelin.New(res.NumNodes, graphzeppelin.WithSeed(1), graphzeppelin.WithShards(2))
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	for _, u := range res.Updates {
		if err := g.Apply(u); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := g.Connected(0, 1); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := uint32(i) % res.NumNodes
		v := uint32(i*7+1) % res.NumNodes
		if _, err := g.Connected(u, v); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpanningForest measures cold full queries (an edge toggle
// before each query invalidates the cache) in RAM and out-of-core modes:
// the lazy per-round materialization and, on disk, the sequential
// range-read scan are what this times. Smoke-run in CI; end to end it is
// query_cold_ms of the ram-dense and disk-social workloads.
func BenchmarkSpanningForest(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts func(b *testing.B) []graphzeppelin.Option
	}{
		{"ram", func(*testing.B) []graphzeppelin.Option { return nil }},
		{"disk", func(b *testing.B) []graphzeppelin.Option {
			return []graphzeppelin.Option{graphzeppelin.WithSketchesOnDisk(b.TempDir())}
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			res := benchStream()
			opts := append([]graphzeppelin.Option{
				graphzeppelin.WithSeed(1), graphzeppelin.WithShards(2),
			}, mode.opts(b)...)
			g, err := graphzeppelin.New(res.NumNodes, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			for _, u := range res.Updates {
				if err := g.Apply(u); err != nil {
					b.Fatal(err)
				}
			}
			if err := g.Flush(); err != nil {
				b.Fatal(err)
			}
			var queryReads uint64
			b.ResetTimer()
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				// Toggle an edge to force a cold query, flushing outside
				// the timer (and the I/O delta) so both measure only the
				// query itself.
				if err := g.Insert(0, 1); err != nil {
					b.Fatal(err)
				}
				if err := g.Flush(); err != nil {
					b.Fatal(err)
				}
				before := g.Stats().SketchIO.ReadOps
				b.StartTimer()
				if _, err := g.SpanningForest(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				queryReads += g.Stats().SketchIO.ReadOps - before
			}
			if queryReads > 0 {
				b.ReportMetric(float64(queryReads)/float64(b.N), "readOps/query")
			}
		})
	}
}

// BenchmarkConnectedAfterDelta measures the query-latency spectrum the
// incremental maintenance path creates: a cold full query (delta disabled,
// cache invalidated before every run), the O(1) epoch-cached answer on a
// quiet graph, and delta queries after dirtying 0.1%, 1% and 10% of the
// nodes — the delta path reuses the cached forest and re-solves only the
// affected components, so latency scales with the dirty fraction instead
// of the graph. The dirty modes insert fresh edges, the delta's intact
// case. detach times the query after a reserved node's four edges to the
// main component — one of them a cached forest edge — are deleted again,
// its cut case (the attach query before it is reported as attach-ms); disk
// is detach with the sketches out of core behind a cache of an eighth of
// the store, where the delta reads the dirty nodes' groups and nothing
// else. disk attaches to the same four nodes every iteration, so their
// groups stay resident; disk-fresh draws four fresh partners from the main
// component per attach, as the repository benchmark's trickles do, so
// their batches fault groups through the cache wherever they are applied.
// Uses a kron scale-10 stream (1024 nodes) so the ratios are robust;
// detach runs on a scale-12 stream (4096 nodes) as well, where a delta
// query whose work is set by what changed costs what it costs at 1024.
// Smoke-run in CI; end to end it is every workload's query_delta_ms.
func BenchmarkConnectedAfterDelta(b *testing.B) {
	res := experiments.KronStream(10, 1)
	modes := []afterDeltaMode{
		{name: "cold", frac: -1},
		{name: "cached", frac: 0},
		{name: "dirty=0.1%", frac: 0.001},
		{name: "dirty=1%", frac: 0.01},
		{name: "dirty=10%", frac: 0.1},
		{name: "detach", frac: 0.001, detach: true},
		{name: "disk", frac: 0.001, detach: true, disk: true},
		{name: "disk-fresh", frac: 0.001, detach: true, disk: true, fresh: true},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			if !mode.detach || mode.disk {
				benchAfterDelta(b, res, mode)
				return
			}
			for _, scale := range []int{10, 12} {
				b.Run(fmt.Sprintf("n=%d", 1<<scale), func(b *testing.B) {
					benchAfterDelta(b, experiments.KronStream(scale, 1), mode)
				})
			}
		})
	}
}

// afterDeltaMode is one mode of BenchmarkConnectedAfterDelta.
type afterDeltaMode struct {
	name string
	// frac is the node fraction dirtied before each timed query;
	// -1 runs cold full queries, 0 queries a quiet warm cache.
	frac float64
	// detach replaces the fresh edges: every iteration attaches the
	// reserved node and queries, off the clock, then detaches it.
	detach bool
	disk   bool
	// fresh draws the attach's partners anew every iteration.
	fresh bool
}

// benchAfterDelta runs one mode of BenchmarkConnectedAfterDelta over res.
func benchAfterDelta(b *testing.B, res kron.Result, mode afterDeltaMode) {
	n := res.NumNodes
	updates, attach, detach := reservedTrickle(res, 4)
	opts := []graphzeppelin.Option{graphzeppelin.WithSeed(1), graphzeppelin.WithShards(2)}
	if mode.frac < 0 {
		opts = append(opts, graphzeppelin.WithDeltaQueries(false))
	}
	if mode.disk {
		probe, err := graphzeppelin.New(n, graphzeppelin.WithSketchesOnDisk(b.TempDir()))
		if err != nil {
			b.Fatal(err)
		}
		store := probe.Stats().DiskBytes
		probe.Close()
		opts = append(opts, graphzeppelin.WithSketchesOnDisk(b.TempDir()),
			graphzeppelin.WithCacheBytes(store/8), graphzeppelin.WithNodesPerGroup(4))
	}
	g, err := graphzeppelin.New(n, opts...)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	for _, u := range updates {
		if err := g.Apply(u); err != nil {
			b.Fatal(err)
		}
	}
	if err := g.Flush(); err != nil {
		b.Fatal(err)
	}
	if _, err := g.SpanningForest(); err != nil { // warm the cache
		b.Fatal(err)
	}
	// Each inserted edge dirties exactly its two endpoints. The
	// pair walk hands out fresh non-edges only — never an edge of
	// the graph (whose deletion could void a cached forest edge
	// and legitimately demote the delta to the slow path) and
	// never the same pair twice (whose second toggle would be that
	// deletion) — so the measured delta is the trickle-of-new-edges
	// regime the incremental path is built for. The cached and detach
	// modes walk no pairs and build no map.
	var present map[stream.Edge]bool
	if !mode.detach && mode.frac != 0 {
		present = make(map[stream.Edge]bool, len(res.FinalEdges))
		for _, eg := range res.FinalEdges {
			present[eg.Normalize()] = true
		}
	}
	pu, stride := uint32(0), uint32(1)
	nextPair := func() stream.Edge {
		for {
			if pu+stride >= n {
				pu, stride = 0, stride+1
				if stride >= n {
					b.Fatal("pair walk exhausted the non-edges")
				}
			}
			eg := stream.Edge{U: pu, V: pu + stride}
			pu += 2
			if !present[eg] {
				present[eg] = true
				return eg
			}
		}
	}
	k := int(mode.frac * float64(n) / 2)
	if mode.frac > 0 && k < 1 {
		k = 1
	}
	// The main component's nodes, which fresh partners are drawn from.
	var partners []uint32
	if mode.fresh {
		off := make(map[uint32]bool, len(res.Disconnected))
		for _, v := range res.Disconnected {
			off[v] = true
		}
		for v := range n {
			if !off[v] {
				partners = append(partners, v)
			}
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	var attachTime time.Duration
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		if mode.fresh {
			for j, k := range rng.Perm(len(partners))[:len(attach)] {
				eg := graphzeppelin.Edge{U: res.Disconnected[0], V: partners[k]}.Normalize()
				attach[j] = graphzeppelin.Update{Edge: eg, Type: graphzeppelin.Insert}
				detach[j] = graphzeppelin.Update{Edge: eg, Type: graphzeppelin.Delete}
			}
		}
		// The trickle stays in the gutters: the timed query takes it out
		// itself, as the repository benchmark's delta query does. Only the
		// cold mode drains first, so it times the from-scratch query alone.
		if mode.detach {
			if err := g.ApplyBatch(attach); err != nil {
				b.Fatal(err)
			}
			t0 := time.Now()
			if _, err := g.SpanningForest(); err != nil {
				b.Fatal(err)
			}
			attachTime += time.Since(t0)
			if err := g.ApplyBatch(detach); err != nil {
				b.Fatal(err)
			}
		} else if mode.frac != 0 {
			toggles := k
			if mode.frac < 0 {
				toggles = 1 // cold mode: any toggle invalidates the cache
			}
			for j := 0; j < toggles; j++ {
				eg := nextPair()
				if err := g.Insert(eg.U, eg.V); err != nil {
					b.Fatal(err)
				}
			}
			if mode.frac < 0 {
				if err := g.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StartTimer()
		if _, err := g.SpanningForest(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
	}
	st := g.Stats()
	if mode.frac > 0 {
		if st.DeltaQueries == 0 {
			b.Fatalf("no delta queries ran (fallbacks=%d)", st.DeltaFallbacks)
		}
		b.ReportMetric(float64(st.DeltaFallbacks), "fallbacks")
	}
	if mode.detach {
		b.ReportMetric(float64(attachTime.Microseconds())/1e3/float64(b.N), "attach-ms")
	}
}

// BenchmarkServeCycle measures the interleaved query workload of Figure 16
// the way the repository benchmark's serve phase does, on one core at
// kron scale 11 (2 048 nodes): one op is a 1 % slice of the stream, a
// ConnectedComponents that must flush every node's partially filled gutter
// (≈10 updates each) and answer from scratch, then a four-edge trickle
// that attaches a reserved node to the main component (even cycles) or
// detaches it again (odd cycles) and the delta query that follows it — the
// attach is the delta's intact case, the detach deletes the node's one
// forest edge and is its cut case, and the component count must drop and
// rise in turn or the bench fails. Small-batch Slab.Apply, the gutter
// freelist, before-image capture and the first Boruvka round's singleton
// roots all sit on this path and on no other benchmark in this file.
// Smoke-run in CI; rows in README "Query cost model".
func BenchmarkServeCycle(b *testing.B) {
	const slices = 100
	updates, attach, detach := reservedTrickle(experiments.KronStream(11, 1), 4)
	g, err := graphzeppelin.New(1<<11, graphzeppelin.WithSeed(1), graphzeppelin.WithShards(1))
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	if err := g.ApplyBatch(updates); err != nil {
		b.Fatal(err)
	}
	if _, _, err := g.ConnectedComponents(); err != nil { // the baseline the first slice query falls back from
		b.Fatal(err)
	}
	// query times one answer and, inside it, the drain: the explicit Flush
	// does what the query's own would, forcing the gutters out and
	// applying them, and leaves the query only its Boruvka rounds.
	query := func() (count int, total, drain time.Duration) {
		t0 := time.Now()
		if err := g.Flush(); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		_, count, err := g.ConnectedComponents()
		if err != nil {
			b.Fatal(err)
		}
		return count, time.Since(t0), t1.Sub(t0)
	}
	before := g.Stats()
	var cold, coldDrain time.Duration
	var trickled [2]time.Duration // attach, detach
	applied := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Sketches are linear over Z_2, so replaying the stream slice by
		// slice walks the graph to empty and back; every slice dirties
		// nearly every node either way.
		lo, hi := len(updates)*(i%slices)/slices, len(updates)*(i%slices+1)/slices
		if err := g.ApplyBatch(updates[lo:hi]); err != nil {
			b.Fatal(err)
		}
		count, total, drain := query()
		cold += total
		coldDrain += drain
		trickle, sign := attach, -1
		if i%2 == 1 {
			trickle, sign = detach, +1
		}
		if err := g.ApplyBatch(trickle); err != nil {
			b.Fatal(err)
		}
		after, total, _ := query()
		// By one against the full graph, by up to len(attach) where the
		// replay has walked it down to near empty.
		if (after-count)*sign <= 0 {
			b.Fatalf("cycle %d: %d components before the trickle, %d after: it did not change the partition", i, count, after)
		}
		trickled[i%2] += total
		applied += hi - lo + len(trickle)
	}
	b.StopTimer()
	after := g.Stats()
	if d, f := after.DeltaQueries-before.DeltaQueries, after.DeltaFallbacks-before.DeltaFallbacks; d != uint64(b.N) || f != uint64(b.N) {
		b.Fatalf("%d cycles answered %d delta queries and %d from-scratch fallbacks; want one of each per cycle", b.N, d, f)
	}
	b.ReportMetric(float64(applied)/b.Elapsed().Seconds()/1e6, "Mupd/s")
	b.ReportMetric(float64(cold.Microseconds())/1e3/float64(b.N), "cold-ms")
	b.ReportMetric(float64(coldDrain.Microseconds())/1e3/float64(b.N), "cold-drain-ms")
	b.ReportMetric(float64(trickled[0].Microseconds())/1e3/float64((b.N+1)/2), "attach-ms")
	if b.N > 1 {
		b.ReportMetric(float64(trickled[1].Microseconds())/1e3/float64(b.N/2), "detach-ms")
	}
}

// reservedTrickle reserves one node of a kron stream for trickles: it
// returns the stream without that node's updates — kron.ToStream's
// disconnected set is joined among itself and tied to the rest by
// transient edges mid-pass, so only a node no update touches is isolated
// at every point of every pass — and the pair of batches that attach it to
// k nodes of the main component and detach it again, each of which changes
// the component count by one.
func reservedTrickle(res kron.Result, k int) (updates, attach, detach []graphzeppelin.Update) {
	cut := make(map[uint32]bool, len(res.Disconnected))
	for _, v := range res.Disconnected {
		cut[v] = true
	}
	reserved := res.Disconnected[0]
	for _, u := range res.Updates {
		if u.Edge.U != reserved && u.Edge.V != reserved {
			updates = append(updates, u)
		}
	}
	for v := uint32(0); len(attach) < k; v++ {
		if !cut[v] {
			eg := graphzeppelin.Edge{U: reserved, V: v}.Normalize()
			attach = append(attach, graphzeppelin.Update{Edge: eg, Type: graphzeppelin.Insert})
			detach = append(detach, graphzeppelin.Update{Edge: eg, Type: graphzeppelin.Delete})
		}
	}
	return updates, attach, detach
}

// --- Out-of-core tier: grouped slots + write-back cache ---

// BenchmarkIngestDiskCached measures disk-mode ingestion through the
// tiered store (grouped slots + sharded write-back cache), reporting
// updates/s and absolute sketch-store block I/Os per update. The measured
// window runs through Close, so each mode is charged its deferred
// dirty-group spill (one coalesced write per resident group) — the figure
// is full-lifecycle, not deferral-flattered. Construction-time slot
// initialization is excluded. Smoke-run in CI; end to end it is
// disk-social's ingest_mups and disk_blocks_per_update.
func BenchmarkIngestDiskCached(b *testing.B) {
	res := benchStream()
	for _, mode := range []struct {
		name string
		opts []graphzeppelin.Option
	}{
		{"cached", nil},
		{"cached-npg16", []graphzeppelin.Option{graphzeppelin.WithNodesPerGroup(16)}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			opts := append([]graphzeppelin.Option{
				graphzeppelin.WithSeed(1),
				graphzeppelin.WithShards(2),
				graphzeppelin.WithSketchesOnDisk(b.TempDir()),
			}, mode.opts...)
			g, err := graphzeppelin.New(res.NumNodes, opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			ioBefore := g.Stats().SketchIO
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.Apply(res.Updates[i%len(res.Updates)]); err != nil {
					b.Fatal(err)
				}
			}
			if err := g.Flush(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			// Close inside the measured I/O delta: the cache's deferred
			// dirty write-backs are part of the cost being measured.
			if err := g.Close(); err != nil {
				b.Fatal(err)
			}
			st := g.Stats()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
			b.ReportMetric(float64(st.SketchIO.TotalBlocks()-ioBefore.TotalBlocks())/float64(b.N), "blocks/update")
			if lookups := st.SketchCache.Hits + st.SketchCache.Misses; lookups > 0 {
				b.ReportMetric(100*float64(st.SketchCache.Hits)/float64(lookups), "hit%")
			}
		})
	}
}

// BenchmarkDiskColdQuery measures the out-of-core from-scratch query where
// the repository benchmark's disk-social workload pays for it: a
// heavy-tailed social graph of 1 024 nodes (kron.GooglePlusLike, 48 edges
// per node), sketches on files behind a cache of an eighth of the store,
// four nodes per group, two workers. One op is a 1 % slice of the stream
// and the ConnectedComponents after it, which must fall back from the delta
// path (the bench fails otherwise). The query is timed with the slice
// still in the gutters, as disk-social times it: cold-ms is its drain and
// its Boruvka rounds together, the drain's leftover batches applied in
// round 0's pass over the store. read-blocks/query and write-blocks/query
// are the device blocks one such query moves, and scans/query its bytes
// read in passes over the part of the store that was not resident when it
// began. Smoke-run in CI; end to end it is disk-social's query_cold_ms.
func BenchmarkDiskColdQuery(b *testing.B) {
	const slices = 100
	n := uint32(1) << 10
	updates := kron.ToStream(kron.GooglePlusLike(n, 48, 1), n, kron.StreamOptions{}, 1).Updates
	probe, err := graphzeppelin.New(n, graphzeppelin.WithSketchesOnDisk(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	store := probe.Stats().DiskBytes
	probe.Close()
	g, err := graphzeppelin.New(n, graphzeppelin.WithSeed(1), graphzeppelin.WithShards(2),
		graphzeppelin.WithSketchesOnDisk(b.TempDir()), graphzeppelin.WithCacheBytes(store/8), graphzeppelin.WithNodesPerGroup(4))
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	if err := g.ApplyBatch(updates); err != nil {
		b.Fatal(err)
	}
	if _, _, err := g.ConnectedComponents(); err != nil { // the baseline every slice query falls back from
		b.Fatal(err)
	}
	groups := float64((n + 3) / 4)
	before := g.Stats()
	var cold time.Duration
	var readBlocks, writeBlocks uint64
	var scans float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Replayed slice by slice the stream walks the graph to empty and
		// back (sketches are linear over Z_2); every slice dirties far more
		// nodes than the delta path accepts.
		lo, hi := len(updates)*(i%slices)/slices, len(updates)*(i%slices+1)/slices
		if err := g.ApplyBatch(updates[lo:hi]); err != nil {
			b.Fatal(err)
		}
		st0 := g.Stats()
		t0 := time.Now()
		if _, _, err := g.ConnectedComponents(); err != nil {
			b.Fatal(err)
		}
		cold += time.Since(t0)
		st1 := g.Stats()
		readBlocks += st1.SketchIO.ReadBlocks - st0.SketchIO.ReadBlocks
		writeBlocks += st1.SketchIO.WriteBlocks - st0.SketchIO.WriteBlocks
		if cold := float64(store) * (1 - float64(st0.SketchCache.CachedGroups)/groups); cold > 0 {
			scans += float64(st1.SketchIO.BytesRead-st0.SketchIO.BytesRead) / cold
		}
	}
	b.StopTimer()
	after := g.Stats()
	if d, f := after.DeltaQueries-before.DeltaQueries, after.DeltaFallbacks-before.DeltaFallbacks; d != 0 || f != uint64(b.N) {
		b.Fatalf("%d slice queries: %d answered by the delta path, %d from-scratch fallbacks; want every one a fallback", b.N, d, f)
	}
	b.ReportMetric(float64(cold.Microseconds())/1e3/float64(b.N), "cold-ms")
	b.ReportMetric(scans/float64(b.N), "scans/query")
	b.ReportMetric(float64(readBlocks)/float64(b.N), "read-blocks/query")
	b.ReportMetric(float64(writeBlocks)/float64(b.N), "write-blocks/query")
}

// --- Ingest throughput: sharded pipeline vs the seed configuration ---

// BenchmarkIngestThroughput measures steady-state RAM-path ingestion
// across shard counts, reporting updates/sec and allocs/op. The seed
// configuration (per-node mutexes + one global mutex-guarded MPMC queue +
// per-sketch heap slices) is gone from the tree. End to end, the serial
// figure is ram-dense-1c's ingest_mups.
func BenchmarkIngestThroughput(b *testing.B) {
	res := experiments.KronStream(10, 1)
	for _, s := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", s), func(b *testing.B) {
			g, err := graphzeppelin.New(res.NumNodes, graphzeppelin.WithSeed(1), graphzeppelin.WithShards(s))
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			// Warm the gutters and worker pool before timing.
			for i := 0; i < len(res.Updates) && i < 1<<14; i++ {
				if err := g.Apply(res.Updates[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.Apply(res.Updates[i%len(res.Updates)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer() // keep the deferred Close's drain out of ns/op
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
		})
	}
}

// BenchmarkIngestParallel measures multi-producer ingestion: p goroutines
// each drive a private Ingestor session over one shared Graph, splitting
// b.N updates between them. On a multi-core host the producer-side work
// (gutter inserts, hashing, batching) scales with p until the shard
// workers saturate; on a single-vCPU host the value of the benchmark is
// the overhead it does NOT show — the multi-producer machinery (stripe
// locks, per-shard push mutexes, session buffers) should cost no
// throughput versus producers=1. Smoke-run in CI; end to end, the
// ram-dense / ram-dense-1c ingest_mups ratio is the multi-core figure
// (README.md, "Multi-core scaling").
func BenchmarkIngestParallel(b *testing.B) {
	res := experiments.KronStream(10, 1)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("producers=%d", p), func(b *testing.B) {
			g, err := graphzeppelin.New(res.NumNodes, graphzeppelin.WithSeed(1), graphzeppelin.WithShards(4))
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			// Warm the gutters and worker pool before timing.
			for i := 0; i < len(res.Updates) && i < 1<<14; i++ {
				if err := g.Apply(res.Updates[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / p
			for i := 0; i < p; i++ {
				count := per
				if i == p-1 {
					count = b.N - per*(p-1)
				}
				wg.Add(1)
				go func(i, count int) {
					defer wg.Done()
					ing, err := g.NewIngestor()
					if err != nil {
						b.Error(err)
						return
					}
					off := i * (len(res.Updates) / p)
					for j := 0; j < count; j++ {
						if err := ing.Apply(res.Updates[(off+j)%len(res.Updates)]); err != nil {
							b.Error(err)
							return
						}
					}
					if err := ing.Close(); err != nil {
						b.Error(err)
					}
				}(i, count)
			}
			wg.Wait()
			b.StopTimer() // keep the deferred Close's drain out of ns/op
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
		})
	}
}

// BenchmarkIngestBatch measures the ApplyBatch bulk path a single
// producer gets without an Ingestor: the per-call overhead (engine
// read-lock, validation pass, stripe grouping) amortized over the batch.
func BenchmarkIngestBatch(b *testing.B) {
	res := experiments.KronStream(10, 1)
	for _, size := range []int{1, 64, 512, 4096} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			g, err := graphzeppelin.New(res.NumNodes, graphzeppelin.WithSeed(1), graphzeppelin.WithShards(1))
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			for i := 0; i < len(res.Updates) && i < 1<<14; i++ {
				if err := g.Apply(res.Updates[i]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; {
				end := done + size
				if end > b.N {
					end = b.N
				}
				lo := done % len(res.Updates)
				hi := lo + (end - done)
				if hi > len(res.Updates) {
					hi = len(res.Updates)
					end = done + (hi - lo)
				}
				if err := g.ApplyBatch(res.Updates[lo:hi]); err != nil {
					b.Fatal(err)
				}
				done = end
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
		})
	}
}

// --- Ablations: sketch width, sketch batch size and buffering off ---

// BenchmarkAblationColumns sweeps the per-sketch column count log(1/δ):
// fewer columns are faster and smaller but raise the per-query failure
// probability (the reliability experiment sweeps the same knob).
func BenchmarkAblationColumns(b *testing.B) {
	const n = 1 << 30
	for _, cols := range []int{3, 5, 7, 9, 11} {
		b.Run(fmt.Sprintf("cols=%d", cols), func(b *testing.B) {
			s := cubesketch.New(n, cols, 1)
			idxs := randomIndices(n, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(idxs[i%len(idxs)])
			}
			b.ReportMetric(float64(s.Bytes()), "sketchB")
		})
	}
}

// BenchmarkAblationBatchSize compares one-at-a-time sketch updating with
// the batched path the Graph Workers use.
func BenchmarkAblationBatchSize(b *testing.B) {
	const n = 1 << 30
	for _, batch := range []int{1, 16, 256, 4096} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			s := cubesketch.New(n, 0, 1)
			idxs := randomIndices(n, batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.UpdateBatch(idxs)
			}
			b.StopTimer()
			b.ReportMetric(float64(batch), "updates/op")
		})
	}
}

// BenchmarkAblationUnbuffered quantifies what the gutters buy: the same
// stream with the buffering stage disabled entirely (the paper's 33×
// observation in §6.5).
func BenchmarkAblationUnbuffered(b *testing.B) {
	res := benchStream()
	g, err := graphzeppelin.New(res.NumNodes,
		graphzeppelin.WithSeed(1),
		graphzeppelin.WithBuffering(graphzeppelin.Unbuffered),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Apply(res.Updates[i%len(res.Updates)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- helpers ---

func lenExp(n uint64) int {
	e := 0
	for n >= 10 {
		n /= 10
		e++
	}
	return e
}

func randomIndices(n uint64, count int) []uint64 {
	idxs := make([]uint64, count)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range idxs {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idxs[i] = x % n
	}
	return idxs
}

// BenchmarkForestPeeler ingests a fixed random stream of 200k inserts into
// a ForestPeeler(k=3) over 2,048 nodes through ApplyBatch, flushes, and
// peels the three forests. Mupd/s counts logical (user) updates over
// ingest + flush, forests-ms times Forests() alone, mem-MiB is the
// structure's MemoryBytes.
func BenchmarkForestPeeler(b *testing.B) {
	const k, n, total, batch = 3, 2048, 200_000, 4096
	rng := rand.New(rand.NewPCG(3, 3))
	ups := make([]graphzeppelin.Update, 0, total)
	for len(ups) < total {
		u, v := uint32(rng.IntN(n)), uint32(rng.IntN(n))
		if u != v {
			ups = append(ups, graphzeppelin.Update{Edge: graphzeppelin.Edge{U: u, V: v}, Type: graphzeppelin.Insert})
		}
	}
	var ingest, peel time.Duration
	var mem int64
	for i := 0; i < b.N; i++ {
		p, err := graphzeppelin.NewForestPeeler(k, n, graphzeppelin.WithSeed(1))
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		for lo := 0; lo < total; lo += batch {
			if err := p.ApplyBatch(ups[lo:min(lo+batch, total)]); err != nil {
				b.Fatal(err)
			}
		}
		if err := p.Flush(); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		forests, err := p.Forests()
		if err != nil {
			b.Fatal(err)
		}
		peel += time.Since(t1)
		ingest += t1.Sub(t0)
		if len(forests[0]) != n-1 {
			b.Fatalf("first forest has %d edges, want %d", len(forests[0]), n-1)
		}
		mem = p.Stats().MemoryBytes
		p.Close()
	}
	b.ReportMetric(float64(total*b.N)/ingest.Seconds()/1e6, "Mupd/s")
	b.ReportMetric(float64(peel.Microseconds())/1e3/float64(b.N), "forests-ms")
	b.ReportMetric(float64(mem)/(1<<20), "mem-MiB")
}
