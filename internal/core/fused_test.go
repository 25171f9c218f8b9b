package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"graphzeppelin/internal/stream"
)

// TestFusedDrainMatchesPlainDrain pins the out-of-core query's fused drain
// to the plain one. Out of core a from-scratch query applies the gutters'
// leftover batches in its pass over the store, and a delta query hands
// them to the workers first (takeLeftover). Each engine here runs beside a
// twin that Drains before every query, so its queries find nothing
// buffered; in every buffering mode, with a cache at its one-group floor
// and at an eighth of the store, every answer must be the twin's forest,
// each query must take the twin's path (delta or fallback), and the store
// must end byte for byte the twin's. The fused engine must also have
// fused: its from-scratch queries fault no group into the cache. With
// BufferNone no batch is ever left over, so that case pins the plain path.
func TestFusedDrainMatchesPlainDrain(t *testing.T) {
	const n = 128
	edges := randomEdges(n, 720, 61, 62)
	probe, err := NewEngine(Config{NumNodes: n, SketchesOnDisk: true, DeviceFactory: memFactory(4096)})
	if err != nil {
		t.Fatal(err)
	}
	store := probe.Stats().DiskBytes
	probe.Close()
	for _, buffering := range []BufferingKind{BufferLeaf, BufferTree, BufferNone} {
		for _, cache := range []struct {
			name  string
			bytes int64
		}{{"floor", 1}, {"eighth", store / 8}} {
			t.Run(fmt.Sprintf("%s/%s", buffering, cache.name), func(t *testing.T) {
				cfg := Config{
					NumNodes: n, Seed: 63, Shards: 2, SketchesOnDisk: true, NodesPerGroup: 4,
					CacheBytes: cache.bytes, Buffering: buffering, DeviceFactory: memFactory(4096),
				}
				fused, plain := newTestEngine(t, cfg), newTestEngine(t, cfg)
				step := func(ups []stream.Edge) (misses uint64) {
					t.Helper()
					for _, e := range []*Engine{fused, plain} {
						if err := e.InsertEdges(ups); err != nil {
							t.Fatal(err)
						}
					}
					if err := plain.Drain(); err != nil {
						t.Fatal(err)
					}
					// Let the workers apply what the gutters emitted as they
					// filled, leaving the leftovers buffered, so that the
					// misses counted below are the query's own.
					fused.pending.Wait()
					before := fused.Stats().SketchCache.Misses
					got, want := sortedForest(t, fused), sortedForest(t, plain)
					if !slices.Equal(got, want) {
						t.Fatalf("after %d updates the fused drain's forest has %d edges, the plain drain's %d, and they differ", len(ups), len(got), len(want))
					}
					fs, ps := fused.Stats(), plain.Stats()
					if fs.DeltaQueries != ps.DeltaQueries || fs.DeltaFallbacks != ps.DeltaFallbacks {
						t.Fatalf("fused drain: %d delta queries, %d fallbacks; plain drain: %d and %d",
							fs.DeltaQueries, fs.DeltaFallbacks, ps.DeltaQueries, ps.DeltaFallbacks)
					}
					return fs.SketchCache.Misses - before
				}
				// Slices of the stream, each dirtying far more than a tenth of
				// the nodes (the first query runs from scratch, the others fall
				// back), each followed by a one-edge trickle that toggles one of
				// its edges back out, which the delta path answers.
				const slice = 120
				for lo := 0; lo < len(edges); lo += slice {
					if misses := step(edges[lo : lo+slice]); misses != 0 {
						t.Fatalf("a from-scratch query faulted %d groups into the cache", misses)
					}
					step(edges[lo : lo+1])
				}
				if st := plain.Stats(); st.DeltaQueries == 0 || st.DeltaFallbacks == 0 {
					t.Fatalf("the stream ran %d delta queries and %d fallbacks; want both paths", st.DeltaQueries, st.DeltaFallbacks)
				}
				if !bytes.Equal(checkpointBytes(t, fused), checkpointBytes(t, plain)) {
					t.Fatal("the fused drain's store differs from the plain drain's")
				}
			})
		}
	}
}

// newTestEngine builds an engine that the test closes.
func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}
