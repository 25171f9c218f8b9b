package core

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"graphzeppelin/internal/stream"
)

// skewedEdges generates count edges with one endpoint drawn from 16 hot
// nodes, the multiples of stride, and the other uniform, deterministically
// per seed. With stride = Shards × NodesPerGroup every hot node's group is
// owned by shard 0.
func skewedEdges(seed uint64, numNodes, stride uint32, count int) []stream.Edge {
	rng := rand.New(rand.NewPCG(seed, 0xbeef))
	hot := make([]uint32, 0, 16)
	for n := uint32(0); len(hot) < 16 && n < numNodes; n += stride {
		hot = append(hot, n)
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

// nodeSketchBytes reads node's slot out of a RAM engine's store. The
// engine must be drained (workers idle) when this is called.
func nodeSketchBytes(t *testing.T, e *Engine, node uint32) []byte {
	t.Helper()
	buf := make([]byte, e.slotSize)
	if err := e.sketches.readSlots(node, 1, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestGroupAppliedByOneWorker pins static group ownership in both
// placements. Concurrent producers drive a skewed stream, whose hot nodes'
// groups are all owned by shard 0, through four shards; then
//
//   - no two workers were ever inside applyBatch for one group at once;
//   - no batch was foreign and nothing was rebalanced;
//   - the skew stayed where ownership puts it, on shard 0;
//   - the sketch bytes equal a one-shard unbuffered engine's, which
//     XOR-linearity makes sensitive to any dropped or doubled batch.
//
// Out of core, routing by node instead of by group usually breaks the
// first property.
func TestGroupAppliedByOneWorker(t *testing.T) {
	const (
		numNodes  = 256
		shards    = 4
		producers = 4
		perProd   = 1500
	)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"ram", Config{}},
		{"disk", Config{SketchesOnDisk: true, NodesPerGroup: 4, DeviceFactory: memFactory(4096)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.NumNodes, cfg.Seed, cfg.Shards = numNodes, 0x9709, shards
			// Unbuffered: every update is a batch, through the fixed
			// 8-slot per-shard queues.
			cfg.Buffering = BufferNone
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			npg := uint32(e.npg)

			inGroup := make([]atomic.Int32, numNodes/npg)
			var overlaps atomic.Int32
			e.testApplyHook = func(node uint32) func() {
				if inGroup[node/npg].Add(1) != 1 {
					overlaps.Add(1)
				}
				return func() { inGroup[node/npg].Add(-1) }
			}

			all := skewedEdges(7, numNodes, shards*npg, producers*perProd)
			var wg sync.WaitGroup
			for p := 0; p < producers; p++ {
				wg.Add(1)
				go func(part []stream.Edge) {
					defer wg.Done()
					for _, eg := range part {
						if err := e.InsertEdge(eg.U, eg.V); err != nil {
							t.Error(err)
							return
						}
					}
				}(all[p*perProd : (p+1)*perProd])
			}
			wg.Wait()
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}

			if v := overlaps.Load(); v != 0 {
				t.Fatalf("%d times two workers were applying nodes of one group at once", v)
			}
			st := e.Stats()
			if st.ForeignBatches != 0 || st.Rebalances != 0 {
				t.Fatalf("foreign=%d rebalances=%d, want both zero", st.ForeignBatches, st.Rebalances)
			}
			for s := 1; s < shards; s++ {
				if st.ShardBatches[0] <= st.ShardBatches[s] {
					t.Fatalf("the hot groups' shard 0 applied no more than shard %d: %v", s, st.ShardBatches)
				}
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
				t.Fatal("the sketches diverge from a one-shard engine fed the same edges")
			}
		})
	}
}
