package core

import (
	"testing"

	"graphzeppelin/internal/dsu"
	"graphzeppelin/internal/stream"
)

// This file pins what a delta query costs, by count: device reads out of
// core, contribution terms per round in RAM, and the before-images'
// footprint — captured only when a query can use them, bounded
// engine-wide, and visible in Stats.MemoryBytes.

// beforeCounts returns how many before-images are live and how many
// buffers sit in the pool.
func beforeCounts(e *Engine) (images, pooled int) {
	e.beforeMu.Lock()
	defer e.beforeMu.Unlock()
	return len(e.before), len(e.beforeFree)
}

// reservedTrickle builds the benchmark's trickle shape on a path giant:
// nodes 0..n-2 form a path, node n-1 is reserved, and the trickle attaches
// it to eight path nodes sixteen apart — no two of them forest neighbours,
// each in a disk group of its own.
func reservedTrickle(t *testing.T, cfg Config) (e *Engine, path, attach []stream.Edge) {
	t.Helper()
	n := cfg.NumNodes
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	for u := uint32(0); u+2 < n; u++ {
		path = append(path, stream.Edge{U: u, V: u + 1})
	}
	if err := e.InsertEdges(path); err != nil {
		t.Fatal(err)
	}
	for j := uint32(0); j < 8; j++ {
		attach = append(attach, stream.Edge{U: 3 + 16*j, V: n - 1})
	}
	return e, path, attach
}

// TestDeltaQueryDiskReads is the out-of-core cost pin: after a trickle
// that attaches, then detaches, a reserved node, the delta query reads
// nothing from the device while the trickle's groups are still resident
// in the write-back cache, and once they are not, at most one read per
// dirty group per round — never the giant component's slots.
func TestDeltaQueryDiskReads(t *testing.T) {
	const n = 160
	const dirtyGroups = 9 // the reserved node's and the eight attach points'
	for _, evict := range []bool{false, true} {
		name := "resident"
		if evict {
			name = "invalidated"
		}
		t.Run(name, func(t *testing.T) {
			e, path, attach := reservedTrickle(t, Config{
				NumNodes: n, Seed: 91, Shards: 2, SketchesOnDisk: true, NodesPerGroup: 4,
				DeviceFactory: memFactory(512),
			})
			checkAgainstExact(t, e, n, path)
			for step, edges := range [][]stream.Edge{append(path, attach...), path} {
				for _, eg := range attach { // a toggle either way
					mustUpdate(t, e, eg.U, eg.V)
				}
				if err := e.Drain(); err != nil {
					t.Fatal(err)
				}
				if evict {
					if err := e.cache.Invalidate(); err != nil {
						t.Fatal(err)
					}
				}
				before := e.Stats()
				checkAgainstExact(t, e, n, edges)
				after := e.Stats()
				if after.DeltaQueries != before.DeltaQueries+1 {
					t.Fatalf("step %d: the trickle query was not a delta query", step)
				}
				reads := after.SketchIO.ReadOps - before.SketchIO.ReadOps
				switch {
				case !evict && reads != 0:
					t.Fatalf("step %d: %d device reads with the dirty groups resident, want 0", step, reads)
				case evict && (reads == 0 || reads > uint64(after.QueryRounds)*dirtyGroups):
					t.Fatalf("step %d: %d device reads over %d rounds, want 1..%d per round",
						step, reads, after.QueryRounds, dirtyGroups)
				}
			}
			if c := deltaClassCounts(e); c[classCut] == 0 || c[classSingletons] != 0 {
				t.Fatalf("classes %v: the detach must take the cut path, nothing the from-singletons one", c)
			}
		})
	}
}

// contribBound replays the delta plan's piece arithmetic outside the
// engine: with the cached forest's both-endpoints-dirty edges removed,
// every dirty node may contribute one term and every member of a piece
// other than its component's largest two.
func contribBound(n uint32, forest []stream.Edge, dirty map[uint32]bool) int {
	whole, pieces := dsu.New(int(n)), dsu.New(int(n))
	for _, eg := range forest {
		whole.Union(eg.U, eg.V)
		if !(dirty[eg.U] && dirty[eg.V]) {
			pieces.Union(eg.U, eg.V)
		}
	}
	size := map[uint32]int{}
	for v := uint32(0); v < n; v++ {
		size[pieces.Find(v)]++
	}
	largest := map[uint32]int{} // component -> its largest piece's size
	for p, k := range size {
		if c := whole.Find(p); k > largest[c] {
			largest[c] = k
		}
	}
	small := int(n)
	for _, k := range largest {
		small -= k
	}
	return len(dirty) + 2*small
}

// TestDeltaQueryContributions is the RAM cost pin: the longest per-round
// contribution list of a delta query after forest-edge deletions stays
// within dirty + 2 × (members of all pieces but the largest) — for the
// benchmark's detach that is a dozen terms against a component of 159.
func TestDeltaQueryContributions(t *testing.T) {
	const n = 160
	e, path, attach := reservedTrickle(t, Config{NumNodes: n, Seed: 93, Shards: 2})
	checkAgainstExact(t, e, n, path) // the attach extends this forest by one edge
	if err := e.InsertEdges(attach); err != nil {
		t.Fatal(err)
	}
	checkAgainstExact(t, e, n, append(path, attach...))
	forest, err := e.SpanningForest()
	if err != nil {
		t.Fatal(err)
	}
	dirty := map[uint32]bool{}
	for _, eg := range attach {
		dirty[eg.U], dirty[eg.V] = true, true
		if err := e.DeleteEdge(eg.U, eg.V); err != nil {
			t.Fatal(err)
		}
	}
	checkAgainstExact(t, e, n, path)
	bound := contribBound(n, forest, dirty)
	t.Logf("detach: %d terms in the longest round, bound %d", e.lastDeltaContribs.Load(), bound)
	if got := int(e.lastDeltaContribs.Load()); got == 0 || got > bound || got >= n-1 {
		t.Fatalf("detach materialized %d terms in a round; want 1..%d, and under the component's %d members",
			got, bound, n-1)
	}

	// A cut in the middle of the path: the smaller half is re-materialized,
	// the larger never.
	forest, _ = e.SpanningForest()
	mid := stream.Edge{U: n/4 - 1, V: n / 4}
	if err := e.DeleteEdge(mid.U, mid.V); err != nil {
		t.Fatal(err)
	}
	var cutPath []stream.Edge
	for _, eg := range path {
		if eg != mid {
			cutPath = append(cutPath, eg)
		}
	}
	checkAgainstExact(t, e, n, cutPath)
	bound = contribBound(n, forest, map[uint32]bool{mid.U: true, mid.V: true})
	t.Logf("quarter cut: %d terms in the longest round, bound %d", e.lastDeltaContribs.Load(), bound)
	if got := int(e.lastDeltaContribs.Load()); got < n/4 || got > bound {
		t.Fatalf("quarter cut materialized %d terms in a round; want %d..%d", got, n/4, bound)
	}
	if c := deltaClassCounts(e); c[classCut] != 2 || c[classSingletons] != 0 {
		t.Fatalf("classes %v: want both deletions on the cut path", c)
	}
}

// TestBeforeImagesOnlyWhenUsable pins the capture gate: a bulk load ahead
// of the first query captures (and pools) nothing, because no cached
// result exists for an image to be relative to; once one does, a trickle
// captures exactly its first-dirtied nodes and the next query pools them.
func TestBeforeImagesOnlyWhenUsable(t *testing.T) {
	const n = 64
	e := pathEngine(t, Config{NumNodes: n, Seed: 95, Shards: 2}, n-1)
	defer e.Close()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if images, pooled := beforeCounts(e); images != 0 || pooled != 0 {
		t.Fatalf("bulk load with no query captured %d images and pooled %d buffers", images, pooled)
	}
	if _, _, err := e.ConnectedComponents(); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, e, 0, 9)
	mustUpdate(t, e, 0, 9)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if images, pooled := beforeCounts(e); images != 2 || pooled != 0 {
		t.Fatalf("trickle on two nodes: %d images, %d pooled; want 2 and 0", images, pooled)
	}
	if _, _, err := e.ConnectedComponents(); err != nil {
		t.Fatal(err)
	}
	if images, pooled := beforeCounts(e); images != 0 || pooled != 2 {
		t.Fatalf("after the delta query: %d images, %d pooled; want 0 and 2", images, pooled)
	}
}

// TestBeforeImageFootprint runs slice -> query -> trickle -> query cycles
// in RAM and out of core and pins the images' share of Stats.MemoryBytes:
// zero until a cached result exists, then exactly beforeLimit slot-sized
// buffers — live or pooled, engine-wide, however many shards captured
// them — where out of core the limit is the derived quarter of the cache
// budget.
func TestBeforeImageFootprint(t *testing.T) {
	const n = 128
	probe, err := NewEngine(Config{NumNodes: n, Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	slot := probe.slotSize
	probe.Close()
	for _, mode := range []struct {
		name  string
		cfg   Config
		limit int
	}{
		{"ram", Config{Shards: 4}, n/10 + 1},
		{"disk", Config{Shards: 4, SketchesOnDisk: true, NodesPerGroup: 4, CacheBytes: int64(13 * slot)}, 3},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := mode.cfg
			cfg.NumNodes, cfg.Seed = n, 97
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if e.beforeLimit != mode.limit {
				t.Fatalf("beforeLimit = %d, want %d", e.beforeLimit, mode.limit)
			}
			// imageBytes is MemoryBytes less everything that is not an image.
			fixed := int64(-1)
			imageBytes := func() int64 {
				t.Helper()
				if err := e.Drain(); err != nil {
					t.Fatal(err)
				}
				st := e.Stats()
				rest := st.MemoryBytes - st.SketchCache.CachedBytes
				if fixed < 0 {
					fixed = rest
				}
				return rest - fixed
			}
			slice := func(shift uint32) {
				t.Helper()
				for u := uint32(0); u < n; u++ {
					mustUpdate(t, e, u, (u+shift)%n)
				}
			}
			slice(1)
			if got := imageBytes(); got != 0 {
				t.Fatalf("bulk load: %d image bytes in MemoryBytes, want 0", got)
			}
			want := int64(mode.limit * slot)
			for cycle := uint32(0); cycle < 3; cycle++ {
				if _, _, err := e.ConnectedComponents(); err != nil {
					t.Fatal(err)
				}
				slice(2 + cycle)
				if got := imageBytes(); got != want {
					t.Fatalf("cycle %d after the slice: %d image bytes, want %d (%d slots)", cycle, got, want, mode.limit)
				}
				if _, _, err := e.ConnectedComponents(); err != nil {
					t.Fatal(err)
				}
				mustUpdate(t, e, cycle, cycle+40)
				if got := imageBytes(); got != want {
					t.Fatalf("cycle %d after the trickle: %d image bytes, want %d", cycle, got, want)
				}
				if images, pooled := beforeCounts(e); images != 2 || images+pooled != mode.limit {
					t.Fatalf("cycle %d: %d images + %d pooled, want 2 live of %d", cycle, images, pooled, mode.limit)
				}
			}
		})
	}
}
