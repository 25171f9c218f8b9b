package core

import (
	"errors"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"graphzeppelin/internal/iomodel"
	"graphzeppelin/internal/stream"
)

// pathEngine builds an engine over n nodes with a path 0-1-...-(edges)
// ingested (edges = n-1 connects everything).
func pathEngine(t *testing.T, cfg Config, edges int) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < edges; u++ {
		mustUpdate(t, e, uint32(u), uint32(u+1))
	}
	return e
}

func TestQueryCacheHitAndInvalidation(t *testing.T) {
	e := pathEngine(t, Config{NumNodes: 64, Seed: 71}, 47)
	defer e.Close()

	_, count, err := e.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.QueryCacheHits != 0 {
		t.Fatalf("first query reported %d cache hits", st.QueryCacheHits)
	}
	rounds := st.QueryRounds

	// Unchanged graph: identical answer, no new full query.
	_, count2, err := e.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if count2 != count || st.QueryCacheHits != 1 || st.QueryRounds != rounds {
		t.Fatalf("cached query: count %d vs %d, hits %d, rounds %d vs %d",
			count2, count, st.QueryCacheHits, st.QueryRounds, rounds)
	}
	if _, err := e.SpanningForest(); err != nil {
		t.Fatal(err)
	}
	if ok, err := e.Connected(0, 47); err != nil || !ok {
		t.Fatalf("Connected(0,47) = %v, %v", ok, err)
	}
	if hits := e.Stats().QueryCacheHits; hits != 3 {
		t.Fatalf("cache hits = %d after three cached queries, want 3", hits)
	}

	// A per-update ingest invalidates.
	mustUpdate(t, e, 50, 51)
	_, count3, err := e.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	if count3 != count-1 {
		t.Fatalf("count after new edge = %d, want %d", count3, count-1)
	}
	if hits := e.Stats().QueryCacheHits; hits != 3 {
		t.Fatalf("cache hits = %d after invalidating update, want 3", hits)
	}

	// A batch ingest invalidates too.
	if err := e.UpdateBatch([]stream.Update{
		{Edge: stream.Edge{U: 52, V: 53}, Type: stream.Insert},
	}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.ConnectedComponents(); err != nil {
		t.Fatal(err)
	}
	if hits := e.Stats().QueryCacheHits; hits != 3 {
		t.Fatalf("cache hits = %d after invalidating batch, want 3", hits)
	}
}

// TestCachedResultsAreIsolated verifies callers can mutate a returned
// forest or representative vector without corrupting the cache.
func TestCachedResultsAreIsolated(t *testing.T) {
	e := pathEngine(t, Config{NumNodes: 16, Seed: 72}, 15)
	defer e.Close()
	forest, err := e.SpanningForest()
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := e.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	for i := range forest {
		forest[i] = stream.Edge{U: 999, V: 999}
	}
	for i := range rep {
		rep[i] = 12345
	}
	forest2, err := e.SpanningForest()
	if err != nil {
		t.Fatal(err)
	}
	for _, eg := range forest2 {
		if eg.U == 999 {
			t.Fatal("cached forest was corrupted by a caller mutation")
		}
	}
	rep2, _, err := e.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep2 {
		if r == 12345 {
			t.Fatal("cached representatives were corrupted by a caller mutation")
		}
	}
}

// TestDiskQueryScanReadCount is the regression test for the seed bug
// where the disk-mode query scan issued one store.Read per node across
// all rounds: the scan must read sequential ranges, never n point reads —
// and no more scans than the one-pass rule needs for the live-root counts
// of this very query, which a twin on the same seed stepped round by round
// observes. The cache is emptied before the query so every group actually
// comes off the device; the cached-tier behavior (zero reads) is pinned by
// TestDiskQueryServedFromCache.
func TestDiskQueryScanReadCount(t *testing.T) {
	const n = 64
	cfg := Config{
		NumNodes:       n,
		Seed:           73,
		SketchesOnDisk: true,
		CacheBytes:     1,
		DeviceFactory: func(string) (iomodel.Device, error) {
			return iomodel.NewMem(512), nil
		},
	}
	e := pathEngine(t, cfg, n-1)
	defer e.Close()

	// Drain and spill explicitly so the measured delta is pure query I/O.
	evictAll(t, e)
	before := e.Stats().SketchIO
	if _, err := e.SpanningForest(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	reads := st.SketchIO.ReadOps - before.ReadOps
	if reads == 0 {
		t.Fatal("disk-mode query issued no reads at all")
	}
	// The whole store fits in one queryScanBytes chunk and a connected
	// path keeps a single live run, so a scan is exactly one sequential
	// ReadRange. Round 0's pass gathers the rounds after it, a later scan
	// at round r with L live roots serves max(1, n/L) rounds, and a round
	// whose one live root is the giant reads nothing: on a path, whose
	// live count falls by about two thirds a round, the query reads the
	// store once. The seed behavior was n point reads per round; before
	// the pass gathered, it was 3 scans.
	twin := pathEngine(t, cfg, n-1)
	defer twin.Close()
	evictAll(t, twin)
	perRound, passEnd, live := readRounds(t, twin, nil)
	scans := scansFor(n, twin.cfg.Rounds, passEnd, live)
	if len(live) != st.QueryRounds || scans != scanned(perRound) || scans != 1 {
		t.Fatalf("live counts %v and a pass to round %d give %d scans, the twin read %v per round, over a query of %d rounds; want one",
			live, passEnd, scans, perRound, st.QueryRounds)
	}
	if reads != uint64(scans) {
		t.Fatalf("query issued %d read ops over %d rounds with live counts %v; want %d scans of one sequential range each",
			reads, st.QueryRounds, live, scans)
	}
	if reads >= n {
		t.Fatalf("query issued %d read ops, the per-node point-read regression (n=%d)", reads, n)
	}
	if st.SketchIO.WriteOps != before.WriteOps {
		t.Fatalf("query wrote to the sketch store (%d new write ops)",
			st.SketchIO.WriteOps-before.WriteOps)
	}

	// A repeated query on the unchanged graph is a cache hit: zero I/O.
	if _, err := e.SpanningForest(); err != nil {
		t.Fatal(err)
	}
	st2 := e.Stats()
	if st2.SketchIO.ReadOps != st.SketchIO.ReadOps {
		t.Fatalf("cached query performed %d read ops", st2.SketchIO.ReadOps-st.SketchIO.ReadOps)
	}
	if st2.QueryCacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", st2.QueryCacheHits)
	}
}

// TestDiskQueryServedFromCache pins the tiered-store query contract:
// after ingest leaves every touched group resident in the write-back
// cache, a cold full query is answered entirely from the decoded arenas —
// zero device reads — and still matches the exact partition. This is also
// the coherence test for dirty groups: their device bytes are stale, so
// any device read here would risk a wrong answer, not just a slow one.
func TestDiskQueryServedFromCache(t *testing.T) {
	const n = 64
	e := pathEngine(t, Config{
		NumNodes:       n,
		Seed:           73,
		SketchesOnDisk: true, // default CacheBytes: everything stays resident
		DeviceFactory: func(string) (iomodel.Device, error) {
			return iomodel.NewMem(512), nil
		},
	}, n-1)
	defer e.Close()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if cs := e.Stats().SketchCache; cs.CachedGroups == 0 || cs.WriteBacks != 0 {
		t.Fatalf("precondition: groups should be resident and dirty, got %+v", cs)
	}
	before := e.Stats().SketchIO
	var edges []stream.Edge
	for u := uint32(0); u+1 < n; u++ {
		edges = append(edges, stream.Edge{U: u, V: u + 1})
	}
	checkAgainstExact(t, e, n, edges)
	after := e.Stats().SketchIO
	if after.ReadOps != before.ReadOps || after.WriteOps != before.WriteOps {
		t.Fatalf("cached-tier query touched the device: %d reads, %d writes",
			after.ReadOps-before.ReadOps, after.WriteOps-before.WriteOps)
	}
}

// TestDiskScanFaultSurfaces injects a device fault timed to trip during
// the query's per-round sequential scan (ingest and drain run on a full
// op budget first) and checks the scan error surfaces through
// SpanningForest.
func TestDiskScanFaultSurfaces(t *testing.T) {
	const n = 16
	build := func(factory func(string) (iomodel.Device, error)) *Engine {
		return pathEngine(t, Config{
			NumNodes:       n,
			Seed:           74,
			SketchesOnDisk: true,
			CacheBytes:     1, // one resident group: the scan reads the rest off the device
			DeviceFactory:  factory,
		}, n-1)
	}
	// Dry run on a healthy device to learn the op budget ingest+drain
	// needs; the real run gets exactly that much before failing.
	probe := build(func(string) (iomodel.Device, error) {
		return iomodel.NewMem(512), nil
	})
	if err := probe.Drain(); err != nil {
		t.Fatal(err)
	}
	pst := probe.Stats().SketchIO
	budget := int64(pst.ReadOps + pst.WriteOps)
	probe.Close()

	e := build(faultFactory(budget))
	defer e.Close()
	if err := e.Drain(); err != nil {
		t.Fatalf("drain within the measured op budget failed: %v", err)
	}
	_, err := e.SpanningForest()
	if !errors.Is(err, iomodel.ErrInjected) {
		t.Fatalf("scan fault not surfaced: %v", err)
	}
	if !strings.Contains(err.Error(), "query scan") {
		t.Fatalf("fault did not surface through the range scan: %v", err)
	}
	// A failed query must not poison the cache.
	if hits := e.Stats().QueryCacheHits; hits != 0 {
		t.Fatalf("failed query produced %d cache hits", hits)
	}
}

func TestConnectedManyMatchesExact(t *testing.T) {
	const n = 96
	e, err := NewEngine(Config{NumNodes: n, Seed: 75, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var edges []stream.Edge
	rng := uint64(0xdecafbadc0ffee)
	for i := 0; i < 150; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		u, v := uint32(rng)%n, uint32(rng>>32)%n
		if u == v {
			continue
		}
		mustUpdate(t, e, u, v)
		edges = append(edges, stream.Edge{U: u, V: v}.Normalize())
	}
	exact, _ := exactComponents(n, edges)

	pairs := stream.RandomPairs(n, 400, 0xfeedface)
	got, err := e.ConnectedMany(pairs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		want := exact[p.U] == exact[p.V]
		if got[i] != want {
			t.Fatalf("ConnectedMany pair %d (%d,%d) = %v, exact says %v", i, p.U, p.V, got[i], want)
		}
		single, err := e.Connected(p.U, p.V)
		if err != nil {
			t.Fatal(err)
		}
		if single != got[i] {
			t.Fatalf("Connected(%d,%d) = %v disagrees with ConnectedMany %v", p.U, p.V, single, got[i])
		}
	}
	// The whole pair batch plus the per-pair loop ran over one full
	// query: everything after it must have been cache hits.
	if hits := e.Stats().QueryCacheHits; hits != uint64(len(pairs)) {
		t.Fatalf("cache hits = %d, want %d (one per Connected call)", hits, len(pairs))
	}
	if out, err := e.ConnectedMany(nil); err != nil || out != nil {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
}

// TestConnectedManySingleEpoch pins the batch contract: one ConnectedMany
// call answers every pair off ONE query result, never interleaving two
// epochs. Producers toggle the edges of a path a-b-c while queriers ask
// {a,b}, {b,c}, {a,c} (plus duplicates and both orientations) — in any
// single snapshot the answers are transitively consistent and duplicates
// agree, while an implementation that re-resolved the cache per pair
// would eventually mix epochs and break both.
func TestConnectedManySingleEpoch(t *testing.T) {
	const n = 64
	const a, b, c = 10, 20, 30
	e, err := NewEngine(Config{NumNodes: n, Seed: 78, Shards: 2, Buffering: BufferNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			eg := stream.Edge{U: a, V: b}
			if i%2 == 1 {
				eg = stream.Edge{U: b, V: c}
			}
			if err := e.InsertEdge(eg.U, eg.V); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	pairs := []stream.Pair{
		{U: a, V: b}, {U: b, V: a}, // same pair, both orientations
		{U: b, V: c}, {U: c, V: b},
		{U: a, V: c}, {U: a, V: c}, // duplicate
	}
	for i := 0; i < 300; i++ {
		out, err := e.ConnectedMany(pairs)
		if err != nil {
			t.Fatal(err)
		}
		if out[0] != out[1] || out[2] != out[3] || out[4] != out[5] {
			t.Fatalf("iteration %d: duplicate pairs disagree within one call: %v", i, out)
		}
		if out[0] && out[2] && !out[4] {
			t.Fatalf("iteration %d: transitivity violated within one call: %v (answers span epochs)", i, out)
		}
	}
	close(stop)
	wg.Wait()
}

// TestQueryCacheUnderConcurrentProducers hammers the cache fast path
// while producers invalidate it, for the race detector's benefit.
func TestQueryCacheUnderConcurrentProducers(t *testing.T) {
	const n = 128
	e, err := NewEngine(Config{NumNodes: n, Seed: 76, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := uint64(p)*0x9e3779b97f4a7c15 + 1
			for i := 0; i < 1500; i++ {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				u, v := uint32(rng)%n, uint32(rng>>32)%n
				if u == v {
					continue
				}
				if err := e.InsertEdge(u, v); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			pairs := []stream.Pair{{U: 0, V: 1}, {U: 2, V: 3}, {U: uint32(q), V: 100}}
			for i := 0; i < 40; i++ {
				if _, err := e.ConnectedMany(pairs); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := e.ConnectedComponents(); err != nil {
					t.Error(err)
					return
				}
			}
		}(q)
	}
	wg.Wait()
}

// TestPartialForestOnRoundExhaustion pins the ErrQueryFailed contract:
// the partial forest is returned, and failed results are never cached.
func TestPartialForestOnRoundExhaustion(t *testing.T) {
	e := pathEngine(t, Config{NumNodes: 64, Seed: 77, Rounds: 1}, 63)
	defer e.Close()
	forest, err := e.SpanningForest()
	if !errors.Is(err, ErrQueryFailed) {
		t.Fatalf("err = %v, want ErrQueryFailed", err)
	}
	if len(forest) == 0 {
		t.Fatal("failed query returned no partial forest")
	}
	// Partial edges are genuine path edges.
	for _, eg := range forest {
		if eg.V != eg.U+1 {
			t.Fatalf("partial forest contains non-edge (%d,%d)", eg.U, eg.V)
		}
	}
	if _, err := e.SpanningForest(); !errors.Is(err, ErrQueryFailed) {
		t.Fatalf("second failed query err = %v", err)
	}
	if hits := e.Stats().QueryCacheHits; hits != 0 {
		t.Fatalf("failed queries were cached (%d hits)", hits)
	}
}

// allocsOf returns the bytes f allocated, and clean = false when the
// runtime started an OS thread while f ran: a new thread's runtime record
// (newm → allocm) costs some 5 KB that f did not ask for, and the runtime
// starts one now and then, whatever f does.
func allocsOf(f func()) (bytes uint64, clean bool) {
	threads := pprof.Lookup("threadcreate")
	started := threads.Count()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, threads.Count() == started
}

// TestWarmFromScratchQueryAllocatesOnlyItsResult pins the engine's one
// query session: once a query has run, a from-scratch ConnectedComponents
// allocates the result it caches (representatives and forest) and the
// copy it returns — not the DSU, the contribution lists, the per-round
// candidates, the sampling goroutines' accumulators or, out of core,
// round 0's stacks and the scan's buffers, which the session and the store
// keep.
func TestWarmFromScratchQueryAllocatesOnlyItsResult(t *testing.T) {
	const n = 1024
	stores := map[string]Config{
		"ram":  {},
		"disk": {SketchesOnDisk: true, CacheBytes: 1 << 20, NodesPerGroup: 4, DeviceFactory: memFactory(4096)},
	}
	for name, cfg := range stores {
		t.Run(name, func(t *testing.T) {
			cfg.NumNodes, cfg.Seed, cfg.Shards, cfg.NoDeltaQuery = n, 97, 2, true
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			edges := randomEdges(n, 2100, 29, 30)
			if err := e.InsertEdges(edges[:2000]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := e.ConnectedComponents(); err != nil { // warms the session and the arena
				t.Fatal(err)
			}
			// The cached representatives and the returned copy (4 bytes a
			// node each) and the forest (at most n-1 edges of 8 bytes), plus
			// the one thing the query itself allocates beyond them: the
			// result's header. The rest is the runtime's: a descriptor
			// (448 B) for a round's sampling goroutine when the free list
			// of the P starting it is empty, and a waiter record (96 B)
			// when the round's WaitGroup parks on a P without one cached.
			// In a fresh process every query pays descriptors, up to 2.1
			// KB, until some 64 goroutines have run, so the first 20
			// queries are not counted. After them the runtime's share
			// shows in up to half the queries of a run, and under -race in
			// most. So the least any counted query allocates must be the
			// result and its header plus at most two descriptors and a
			// waiter record, which a per-query array of even 256 int32
			// breaks, and every counted query stays within 3.5 KiB of the
			// result and its header. A query during which the runtime
			// started an OS thread (allocsOf) is not counted.
			result := uint64(4*n+4*n+8*n) + uint64(unsafe.Sizeof(queryResult{}))
			var grew []uint64
			for i, eg := range edges[2000:2040] {
				mustUpdate(t, e, eg.U, eg.V)
				if err := e.Drain(); err != nil {
					t.Fatal(err)
				}
				var err error
				b, clean := allocsOf(func() { _, _, err = e.ConnectedComponents() })
				if err != nil {
					t.Fatal(err)
				}
				if i >= 20 && clean {
					grew = append(grew, b)
				}
			}
			if len(grew) < 10 {
				t.Fatalf("the runtime started a thread in %d of 20 queries", 20-len(grew))
			}
			slices.Sort(grew)
			if least := grew[0]; least > result+2*448+96 {
				t.Fatalf("every warm from-scratch query allocated at least %d B; its result, its copy, the result's header and the runtime's records need %d B (all: %v)", least, result+2*448+96, grew)
			}
			if most := grew[len(grew)-1]; most > result+3584 {
				t.Fatalf("a warm from-scratch query allocated %d B, over its result, its copy and the result's header (%d B) by more than 3.5 KiB (all: %v)", most, result, grew)
			}
			if st := e.Stats(); st.DeltaQueries != 0 {
				t.Fatalf("%d delta queries with delta queries disabled", st.DeltaQueries)
			}
		})
	}
}
