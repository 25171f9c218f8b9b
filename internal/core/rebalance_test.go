package core

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphzeppelin/internal/stream"
)

// skewedEdges generates count edges with one endpoint drawn from the hot
// node set (all homed on shard 0 under node % shards) and the other
// uniform, deterministically per (seed).
func skewedEdges(seed uint64, numNodes uint32, shards, count int) []stream.Edge {
	rng := rand.New(rand.NewPCG(seed, 0xbeef))
	hot := make([]uint32, 0, 16)
	for n := uint32(0); len(hot) < 16 && n < numNodes; n += uint32(shards) {
		hot = append(hot, n) // n % shards == 0: every hot node homes on shard 0
	}
	edges := make([]stream.Edge, 0, count)
	for len(edges) < count {
		u := hot[rng.IntN(len(hot))]
		v := rng.Uint32N(numNodes)
		if u == v {
			continue
		}
		edges = append(edges, stream.Edge{U: u, V: v})
	}
	return edges
}

// nodeSketchBytes marshals node's sketches out of its home shard's slab.
// The engine must be drained (workers idle) when this is called.
func nodeSketchBytes(t *testing.T, e *Engine, node uint32) []byte {
	t.Helper()
	sh, local := e.shardOf(node)
	buf := make([]byte, sh.slab.NodeSize())
	sh.slab.MarshalNode(local, buf)
	return buf
}

// TestRebalancerSkewedStreamHandoff is the rebalancer's -race stress test:
// concurrent producers drive a heavily skewed stream (every edge touches a
// node homed on shard 0) through a 4-shard engine with an aggressive
// rebalancing policy, forcing many slice migrations while batches are in
// flight. It proves the two properties the handoff protocol guarantees:
//
//   - per-node apply exclusivity: a test hook brackets every batch apply
//     and counts overlapping appliers per node — any overlap across a
//     migration (the old and new owner applying the same slice at once)
//     is a violation, and under -race also a detected data race on the
//     home slab;
//   - no lost or duplicated work: the final per-node sketch state is
//     bit-identical to a single-shard engine ingesting the same edges,
//     which XOR-linearity makes sensitive to any dropped or double-applied
//     batch.
func TestRebalancerSkewedStreamHandoff(t *testing.T) {
	const (
		numNodes  = 256
		shards    = 4
		producers = 4
		perRound  = 4000
	)
	cfg := Config{
		NumNodes: numNodes,
		Seed:     0xabcde,
		Shards:   shards,
		// Unbuffered: every update is one batch, maximizing queue traffic
		// and migration interleavings.
		Buffering:         BufferNone,
		QueueCapacity:     2 * shards, // tiny queues → constant backpressure
		RebalanceInterval: 200 * time.Microsecond,
		RebalanceFactor:   1.05,
		SlicesPerShard:    16,
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}

	inUse := make([]atomic.Int32, numNodes)
	var violations atomic.Int32
	e.testApplyHook = func(node uint32) func() {
		if inUse[node].Add(1) != 1 {
			violations.Add(1)
		}
		return func() { inUse[node].Add(-1) }
	}

	// Ingest in rounds until the policy has demonstrably migrated slices
	// AND a batch has landed off its home shard (usually within the first
	// round), bounded by wall clock rather than a fixed round count: the
	// policy goroutine's ticks are at the scheduler's mercy, and on a
	// loaded -race host a fixed cutoff was flaky. Every edge is recorded
	// so the sequential reference can replay the identical stream.
	var all []stream.Edge
	deadline := time.Now().Add(5 * time.Second)
	for round := 0; ; round++ {
		var wg sync.WaitGroup
		roundEdges := make([][]stream.Edge, producers)
		for p := 0; p < producers; p++ {
			roundEdges[p] = skewedEdges(uint64(round*producers+p), numNodes, shards, perRound)
			wg.Add(1)
			go func(edges []stream.Edge) {
				defer wg.Done()
				for _, eg := range edges {
					if err := e.InsertEdge(eg.U, eg.V); err != nil {
						t.Error(err)
						return
					}
				}
			}(roundEdges[p])
		}
		wg.Wait()
		for _, edges := range roundEdges {
			all = append(all, edges...)
		}
		mid := e.Stats()
		if round >= 1 && (mid.Rebalances > 0 && mid.ForeignBatches > 0 || !time.Now().Before(deadline)) {
			break
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	st := e.Stats()
	if violations.Load() != 0 {
		t.Fatalf("%d concurrent same-node applies observed across migrations", violations.Load())
	}
	if st.Rebalances == 0 || st.ForeignBatches == 0 {
		// Whether a migration happened inside the window is a scheduling
		// artifact, not a correctness property; the exclusivity and
		// bit-identity assertions below still ran against whatever
		// interleaving occurred, so log and keep them rather than fail.
		t.Logf("no full migration cycle within the deadline (rebalances=%d foreign=%d, batches=%d, shard batches=%v); skipping migration assertions",
			st.Rebalances, st.ForeignBatches, st.Batches, st.ShardBatches)
	} else {
		t.Logf("rebalances=%d foreign=%d shardBatches=%v", st.Rebalances, st.ForeignBatches, st.ShardBatches)
	}

	// Sequential reference: one shard, no rebalancing, same seed.
	ref, err := NewEngine(Config{
		NumNodes:  numNodes,
		Seed:      cfg.Seed,
		Shards:    1,
		Buffering: BufferNone,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eg := range all {
		if err := ref.InsertEdge(eg.U, eg.V); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.Drain(); err != nil {
		t.Fatal(err)
	}
	for node := uint32(0); node < numNodes; node++ {
		if !bytes.Equal(nodeSketchBytes(t, e, node), nodeSketchBytes(t, ref, node)) {
			t.Fatalf("node %d sketches diverge from sequential reference", node)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceDisabled pins the NoRebalance escape hatch: the same skewed
// stream through the same shard count must keep the static partition (no
// migrations, no foreign applies, all hot batches on shard 0).
func TestRebalanceDisabled(t *testing.T) {
	const numNodes, shards = 256, 4
	e, err := NewEngine(Config{
		NumNodes:    numNodes,
		Seed:        1,
		Shards:      shards,
		Buffering:   BufferNone,
		NoRebalance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, eg := range skewedEdges(7, numNodes, shards, 5000) {
		if err := e.InsertEdge(eg.U, eg.V); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Rebalances != 0 || st.ForeignBatches != 0 {
		t.Fatalf("NoRebalance engine migrated: rebalances=%d foreign=%d", st.Rebalances, st.ForeignBatches)
	}
	if st.ShardBatches[0] <= st.ShardBatches[1] {
		t.Fatalf("expected static skew onto shard 0, got %v", st.ShardBatches)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalancerDiskMode runs the skewed stream against the disk-tier
// cache path with rebalancing on: the cache's own locking plus the handoff
// protocol must keep the store coherent, and the final components must
// match the exact reference.
func TestRebalancerDiskMode(t *testing.T) {
	const numNodes, shards = 128, 4
	e, err := NewEngine(Config{
		NumNodes:          numNodes,
		Seed:              3,
		Shards:            shards,
		SketchesOnDisk:    true,
		Buffering:         BufferNone,
		QueueCapacity:     2 * shards,
		RebalanceInterval: 200 * time.Microsecond,
		RebalanceFactor:   1.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	edges := skewedEdges(11, numNodes, shards, 4000)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(part []stream.Edge) {
			defer wg.Done()
			for _, eg := range part {
				if err := e.InsertEdge(eg.U, eg.V); err != nil {
					t.Error(err)
					return
				}
			}
		}(edges[p*1000 : (p+1)*1000])
	}
	wg.Wait()

	// The toggle semantics mean duplicate edges cancel; compute the
	// surviving edge set for the exact reference.
	parity := map[stream.Edge]bool{}
	for _, eg := range edges {
		parity[eg.Normalize()] = !parity[eg.Normalize()]
	}
	var live []stream.Edge
	for eg, on := range parity {
		if on {
			live = append(live, eg)
		}
	}
	wantRep, wantCount := exactComponents(numNodes, live)
	rep, gotCount, err := e.ConnectedComponents()
	if err != nil {
		t.Fatal(err)
	}
	if gotCount != wantCount {
		t.Fatalf("components = %d, want %d", gotCount, wantCount)
	}
	if !samePartition(rep, wantRep) {
		t.Fatal("component partition diverges from exact reference")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupAppliedByOneWorker pins the ownership unit out of core: routing
// is by disk group, so the four nodes of a group never have two workers
// inside applyBatch at once — not in steady state, where each worker is the
// only one faulting groups into its cache shard (no batch is foreign), and
// not while slices migrate under live producers. The store must end
// bit-identical to a one-shard engine's.
func TestGroupAppliedByOneWorker(t *testing.T) {
	const (
		numNodes  = 256
		shards    = 4
		npg       = 4
		producers = 4
		perPhase  = 1500
	)
	cfg := Config{
		NumNodes:       numNodes,
		Seed:           0x9709,
		Shards:         shards,
		SketchesOnDisk: true,
		NodesPerGroup:  npg,
		Buffering:      BufferNone,
		QueueCapacity:  2 * shards,
		SlicesPerShard: 4,
		NoRebalance:    true, // the test migrates by hand, deterministically
		DeviceFactory:  memFactory(4096),
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	inGroup := make([]atomic.Int32, numNodes/npg)
	var violations atomic.Int32
	e.testApplyHook = func(node uint32) func() {
		if inGroup[node/npg].Add(1) != 1 {
			violations.Add(1)
		}
		return func() { inGroup[node/npg].Add(-1) }
	}

	var all []stream.Edge
	ingest := func(phase int, during func()) {
		t.Helper()
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			rng := rand.New(rand.NewPCG(uint64(phase), uint64(p)))
			var edges []stream.Edge
			for len(edges) < perPhase {
				if u, v := rng.Uint32N(numNodes), rng.Uint32N(numNodes); u != v {
					edges = append(edges, stream.Edge{U: u, V: v})
				}
			}
			all = append(all, edges...)
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, eg := range edges {
					if err := e.InsertEdge(eg.U, eg.V); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		if during != nil {
			during()
		}
		wg.Wait()
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
	}

	ingest(0, nil)
	if st := e.Stats(); st.ForeignBatches != 0 || st.Rebalances != 0 {
		t.Fatalf("no migration yet, but %d foreign batches (%d rebalances): a worker applied a group of another's cache shard",
			st.ForeignBatches, st.Rebalances)
	}
	for s, sh := range e.shards {
		if sh.batches.Load() == 0 {
			t.Fatalf("shard %d applied nothing in the first phase", s)
		}
	}

	// Hand every slice on to the next shard, over and over, while the
	// producers run.
	ingest(1, func() {
		for lap := 0; lap < 3; lap++ {
			for s := range e.assign {
				from := e.assign[s].Load()
				if !e.migrate(uint32(s), e.shards[from], e.shards[(from+1)%shards]) {
					t.Error("migration refused")
					return
				}
			}
		}
	})
	// Every slice now sits three shards on from where it started.
	ingest(2, nil)

	st := e.Stats()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d times two workers were applying nodes of one group at once", v)
	}
	if want := uint64(3 * len(e.assign)); st.Rebalances != want || st.ForeignBatches == 0 {
		t.Fatalf("rebalances=%d (want %d) foreign=%d (want > 0)", st.Rebalances, want, st.ForeignBatches)
	}

	ref, err := NewEngine(Config{NumNodes: numNodes, Seed: cfg.Seed, Shards: 1, Buffering: BufferNone})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if err := ref.InsertEdges(all); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(allSketchBytes(t, e), allSketchBytes(t, ref)) {
		t.Fatal("the store diverges from a one-shard engine fed the same edges")
	}
}
