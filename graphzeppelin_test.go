package graphzeppelin_test

import (
	"errors"
	"math/rand/v2"
	"testing"

	"graphzeppelin"
	"graphzeppelin/internal/core"
	"graphzeppelin/internal/dsu"
	"graphzeppelin/internal/stream"
)

func TestQuickstartFlow(t *testing.T) {
	g, err := graphzeppelin.New(10, graphzeppelin.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for u := uint32(0); u < 4; u++ {
		if err := g.Insert(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.Insert(7, 8); err != nil {
		t.Fatal(err)
	}
	if err := g.Delete(7, 8); err != nil {
		t.Fatal(err)
	}
	_, count, err := g.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	if count != 6 { // {0..4}, 5, 6, 7, 8, 9
		t.Fatalf("components = %d, want 6", count)
	}
	conn, err := g.Connected(0, 4)
	if err != nil || !conn {
		t.Fatalf("Connected(0,4) = %v, %v", conn, err)
	}
	conn, err = g.Connected(7, 8)
	if err != nil || conn {
		t.Fatalf("Connected(7,8) = %v, %v; edge was deleted", conn, err)
	}
}

func TestValidationCatchesProtocolViolations(t *testing.T) {
	g, err := graphzeppelin.New(8, graphzeppelin.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.EnableValidation()
	if err := g.Insert(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(1, 0); err == nil {
		t.Fatal("duplicate insert accepted with validation on")
	}
	if err := g.Delete(2, 3); err == nil {
		t.Fatal("delete of absent edge accepted with validation on")
	}
	if err := g.Insert(3, 3); err == nil {
		t.Fatal("self loop accepted")
	}
	// State is still consistent after rejected updates.
	_, count, err := g.ConnectedComponents()
	if err != nil || count != 7 {
		t.Fatalf("count = %d, err = %v; want 7, nil", count, err)
	}
}

// TestValidationRollsBackRefusedBatches pins that a refused batch leaves
// the validator as it found it, whether the validator refuses it (a
// duplicate inside the batch) or the engine does (an out-of-range node):
// each batch's first edge is then accepted on its own.
func TestValidationRollsBackRefusedBatches(t *testing.T) {
	g, err := graphzeppelin.New(8, graphzeppelin.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.EnableValidation()
	ins := func(u, v uint32) graphzeppelin.Update {
		return graphzeppelin.Update{Edge: graphzeppelin.Edge{U: u, V: v}, Type: graphzeppelin.Insert}
	}
	if err := g.ApplyBatch([]graphzeppelin.Update{ins(0, 1), ins(1, 0)}); err == nil {
		t.Fatal("a batch inserting (0,1) twice was accepted")
	}
	if err := g.Insert(0, 1); err != nil {
		t.Fatalf("inserting (0,1) after the refused batch: %v", err)
	}
	if err := g.ApplyBatch([]graphzeppelin.Update{ins(2, 3), ins(2, 9)}); err == nil {
		t.Fatal("a batch with node 9 of 8 was accepted")
	}
	if err := g.Insert(2, 3); err != nil {
		t.Fatalf("inserting (2,3) after the refused batch: %v", err)
	}
	if err := g.InsertBatch([]graphzeppelin.Edge{{U: 4, V: 5}, {U: 4, V: 9}}); err == nil {
		t.Fatal("an edge batch with node 9 of 8 was accepted")
	}
	if err := g.Apply(ins(4, 9)); err == nil {
		t.Fatal("an update with node 9 of 8 was accepted")
	}
	if err := g.Insert(4, 5); err != nil {
		t.Fatalf("inserting (4,5) after the refused batch: %v", err)
	}
	if err := g.Delete(4, 9); err == nil {
		t.Fatal("deleting the refused edge (4,9) was accepted")
	}
	if _, count, err := g.ConnectedComponents(); err != nil || count != 5 {
		t.Fatalf("count = %d, err = %v; want 5 components: (0,1), (2,3), (4,5) and three singletons", count, err)
	}
}

func TestInvalidNodeRejected(t *testing.T) {
	g, err := graphzeppelin.New(4, graphzeppelin.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.Insert(0, 4); err == nil {
		t.Fatal("out-of-universe node accepted")
	}
	if err := g.Insert(2, 2); err == nil {
		t.Fatal("self loop accepted")
	}
}

func TestTooFewNodesRejected(t *testing.T) {
	if _, err := graphzeppelin.New(1); err == nil {
		t.Fatal("1-node universe accepted")
	}
}

func TestNegativeCacheBytesRejectedOnDisk(t *testing.T) {
	if _, err := graphzeppelin.New(16, graphzeppelin.WithSketchesOnDisk(""), graphzeppelin.WithCacheBytes(-1)); err == nil {
		t.Fatal("negative cache budget accepted with sketches on disk")
	}
}

func TestSpanningForestIsAcyclicAndSpanning(t *testing.T) {
	const n = 128
	g, err := graphzeppelin.New(n, graphzeppelin.WithSeed(4), graphzeppelin.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rng := rand.New(rand.NewPCG(5, 6))
	exact := dsu.New(n)
	seen := map[stream.Edge]bool{}
	for i := 0; i < 2000; i++ {
		e := stream.Edge{U: uint32(rng.Uint64N(n)), V: uint32(rng.Uint64N(n))}.Normalize()
		if e.U == e.V || seen[e] {
			continue
		}
		seen[e] = true
		if err := g.Insert(e.U, e.V); err != nil {
			t.Fatal(err)
		}
		exact.Union(e.U, e.V)
	}
	forest, err := g.SpanningForest()
	if err != nil {
		t.Fatal(err)
	}
	d := dsu.New(n)
	for _, e := range forest {
		if !seen[e.Normalize()] {
			t.Fatalf("forest edge %v was never inserted", e)
		}
		if _, merged := d.Union(e.U, e.V); !merged {
			t.Fatalf("forest contains a cycle at %v", e)
		}
	}
	if d.Count() != exact.Count() {
		t.Fatalf("forest spans %d components, exact graph has %d", d.Count(), exact.Count())
	}
}

func TestOptionsArePlumbedThrough(t *testing.T) {
	dir := t.TempDir()
	g, err := graphzeppelin.New(32,
		graphzeppelin.WithSeed(7),
		graphzeppelin.WithShards(3),
		graphzeppelin.WithBuffering(graphzeppelin.GutterTree),
		graphzeppelin.WithGutterTreeConfig(4, 256, 64),
		graphzeppelin.WithSketchesOnDisk(dir),
		graphzeppelin.WithColumns(5),
		graphzeppelin.WithRounds(8),
		graphzeppelin.WithBufferFactor(0.25),
		graphzeppelin.WithCacheBytes(4<<20),
		graphzeppelin.WithNodesPerGroup(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for u := uint32(0); u < 31; u++ {
		if err := g.Insert(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	// Flush first: a cold query out of core would apply the buffered
	// updates in its own pass over the store, not through the cache.
	if err := g.Flush(); err != nil {
		t.Fatal(err)
	}
	_, count, err := g.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("path graph gave %d components", count)
	}
	st := g.Stats()
	if st.DiskBytes == 0 {
		t.Fatal("on-disk sketches reported zero disk bytes")
	}
	if st.SketchIO.TotalBlocks() == 0 || st.BufferIO.TotalBlocks() == 0 {
		t.Fatalf("disk structures reported no I/O: %+v", st)
	}
	// The tiered-store knobs reach the engine: batches went through the
	// write-back cache, and the cache accounts for its RAM residency.
	if st.SketchCache.Hits+st.SketchCache.Misses == 0 {
		t.Fatal("write-back cache saw no lookups in disk mode")
	}
	if st.SketchCache.CachedBytes == 0 || st.SketchCache.CachedGroups == 0 {
		t.Fatalf("write-back cache reports no residency: %+v", st.SketchCache)
	}
}

func TestQueriesInterleaveWithIngestion(t *testing.T) {
	const n = 64
	g, err := graphzeppelin.New(n, graphzeppelin.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	exact := dsu.New(n)
	rng := rand.New(rand.NewPCG(9, 10))
	seen := map[stream.Edge]bool{}
	for step := 0; step < 10; step++ {
		for i := 0; i < 50; i++ {
			e := stream.Edge{U: uint32(rng.Uint64N(n)), V: uint32(rng.Uint64N(n))}.Normalize()
			if e.U == e.V || seen[e] {
				continue
			}
			seen[e] = true
			if err := g.Insert(e.U, e.V); err != nil {
				t.Fatal(err)
			}
			exact.Union(e.U, e.V)
		}
		_, count, err := g.ConnectedComponents()
		if err != nil {
			t.Fatal(err)
		}
		if count != exact.Count() {
			t.Fatalf("step %d: count = %d, want %d", step, count, exact.Count())
		}
	}
}

// TestOutOfCoreConcurrentIngestMatchesReference drives the full
// out-of-core configuration — disk-backed sketches, gutter-tree buffering,
// several shard workers — through a churny random stream with interleaved
// queries, asserting the recovered partition always matches an in-RAM
// reference graph and that the sketch store actually saw block I/O.
func TestOutOfCoreConcurrentIngestMatchesReference(t *testing.T) {
	const n = 96
	g, err := graphzeppelin.New(n,
		graphzeppelin.WithSeed(31),
		graphzeppelin.WithShards(4),
		graphzeppelin.WithSketchesOnDisk(t.TempDir()),
		graphzeppelin.WithBuffering(graphzeppelin.GutterTree),
		graphzeppelin.WithGutterTreeConfig(4, 128, 32),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	rng := rand.New(rand.NewPCG(17, 23))
	present := map[stream.Edge]bool{}
	for step := 0; step < 4; step++ {
		for i := 0; i < 800; i++ {
			e := stream.Edge{U: uint32(rng.Uint64N(n)), V: uint32(rng.Uint64N(n))}.Normalize()
			if e.U == e.V {
				continue
			}
			// Toggle: an insert if absent, a delete if present, so the
			// stream stays well-formed while churning heavily.
			present[e] = !present[e]
			if err := g.Insert(e.U, e.V); err != nil {
				t.Fatal(err)
			}
		}
		rep, count, err := g.ConnectedComponents()
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		exact := dsu.New(n)
		for e, on := range present {
			if on {
				exact.Union(e.U, e.V)
			}
		}
		if count != exact.Count() {
			t.Fatalf("step %d: components = %d, want %d", step, count, exact.Count())
		}
		wantRep, _ := exact.Components()
		label := map[uint32]uint32{}
		for i := range rep {
			if m, ok := label[wantRep[i]]; ok {
				if m != rep[i] {
					t.Fatalf("step %d: partition mismatch at node %d", step, i)
				}
			} else {
				label[wantRep[i]] = rep[i]
			}
		}
	}
	st := g.Stats()
	if st.SketchIO.TotalBlocks() == 0 {
		t.Fatal("out-of-core run reported zero sketch I/O")
	}
	if st.BufferIO.TotalBlocks() == 0 {
		t.Fatal("gutter tree reported zero buffer I/O")
	}
	if st.Shards != 4 || len(st.ShardBatches) != 4 {
		t.Fatalf("shard stats not plumbed: %+v", st)
	}
	var shardSum uint64
	for _, b := range st.ShardBatches {
		shardSum += b
	}
	if shardSum != st.Batches || shardSum == 0 {
		t.Fatalf("per-shard batches %v do not sum to total %d", st.ShardBatches, st.Batches)
	}
}

func TestQueryFailureSurfacesWithTooFewRounds(t *testing.T) {
	// One Boruvka round cannot finish a long path graph; the engine must
	// report the failure rather than return a partial forest silently.
	g, err := graphzeppelin.New(64, graphzeppelin.WithSeed(9), graphzeppelin.WithRounds(1))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	for u := uint32(0); u < 63; u++ {
		if err := g.Insert(u, u+1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := g.SpanningForest(); !errors.Is(err, core.ErrQueryFailed) {
		t.Fatalf("err = %v, want ErrQueryFailed", err)
	}
}

func TestEmptyGraphQuery(t *testing.T) {
	g, err := graphzeppelin.New(16, graphzeppelin.WithSeed(10))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	forest, err := g.SpanningForest()
	if err != nil {
		t.Fatal(err)
	}
	if len(forest) != 0 {
		t.Fatalf("empty graph produced forest %v", forest)
	}
	_, count, err := g.ConnectedComponents()
	if err != nil || count != 16 {
		t.Fatalf("count = %d, err = %v; want 16 singletons", count, err)
	}
}
