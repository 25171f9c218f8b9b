package core

import (
	"bytes"
	"math/rand/v2"
	"testing"

	"graphzeppelin/internal/stream"
)

// allSketchBytes returns every node's serialized sketch stack in node
// order, out of the store (after spilling the write-back cache out of
// core).
func allSketchBytes(t *testing.T, e *Engine) []byte {
	t.Helper()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	return rawSlots(t, e)
}

// TestServeCyclesBitIdentical runs the interleaved workload — a slice of
// updates, a query that forces every partially filled gutter out and
// answers from scratch, a trickle on one node, a delta query — and
// requires the sketches to end bit-identical to a one-shard engine fed
// the same updates one at a time with no buffering. The first cycle's
// slice leaves each node a few hundred updates (the kernel's accumulating
// regime), the later ones a handful (its scatter regime), and every query
// also exercises the before-image pool, the recycled gutter buffers and
// the in-place sampling of singleton roots; every answer is checked
// against the exact components on the way.
func TestServeCyclesBitIdentical(t *testing.T) {
	const n = 96
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"ram", Config{NumNodes: n, Seed: 5, Shards: 2}},
		{"disk", Config{NumNodes: n, Seed: 5, Shards: 2, SketchesOnDisk: true, NodesPerGroup: 4}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			eng, err := NewEngine(mode.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			ref, err := NewEngine(Config{NumNodes: n, Seed: 5, Shards: 1, Buffering: BufferNone})
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()

			rng := rand.New(rand.NewPCG(12, 34))
			present := map[stream.Edge]bool{}
			// toggles draws count edge toggles, u pinned when < n.
			toggles := func(count int, u uint32) []stream.Update {
				ups := make([]stream.Update, 0, count)
				for len(ups) < count {
					a := u
					if a >= n {
						a = rng.Uint32N(n)
					}
					eg := stream.Edge{U: a, V: rng.Uint32N(n)}.Normalize()
					if eg.U == eg.V {
						continue
					}
					typ := stream.Insert
					if present[eg] {
						typ = stream.Delete
						delete(present, eg)
					} else {
						present[eg] = true
					}
					ups = append(ups, stream.Update{Edge: eg, Type: typ})
				}
				return ups
			}
			apply := func(ups []stream.Update) {
				t.Helper()
				if err := eng.UpdateBatch(ups); err != nil {
					t.Fatal(err)
				}
				for _, up := range ups {
					if err := ref.Update(up); err != nil {
						t.Fatal(err)
					}
				}
				edges := make([]stream.Edge, 0, len(present))
				for eg := range present {
					edges = append(edges, eg)
				}
				checkAgainstExact(t, eng, n, edges)
			}

			for cycle := 0; cycle < 10; cycle++ {
				slice := 4 * n
				if cycle == 0 {
					slice = 200 * n
				}
				apply(toggles(slice, n))
				apply(toggles(2, uint32(cycle)))
			}

			st := eng.Stats()
			if st.DeltaQueries == 0 || st.DeltaFallbacks == 0 {
				t.Fatalf("want both query paths exercised, got %d delta queries and %d from-scratch fallbacks",
					st.DeltaQueries, st.DeltaFallbacks)
			}
			if !bytes.Equal(allSketchBytes(t, eng), allSketchBytes(t, ref)) {
				t.Fatal("sketches differ from the one-shard per-update reference")
			}
		})
	}
}
