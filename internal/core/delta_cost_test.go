package core

import (
	"slices"
	"testing"
	"unsafe"

	"graphzeppelin/internal/dsu"
	"graphzeppelin/internal/stream"
)

// This file pins what a delta query costs, by count: device reads out of
// core, contribution terms per round in RAM, the DSU operations, piece
// search visits and live roots that its bookkeeping takes, and the
// before-images' footprint — captured only when a query can use them,
// bounded engine-wide, and visible in Stats.MemoryBytes.

// beforeCounts returns how many before-images the baseline holds and how
// many buffers sit in the capture's pool.
func beforeCounts(e *Engine) (images, pooled int) {
	e.capture.mu.Lock()
	defer e.capture.mu.Unlock()
	return len(e.capture.base), len(e.capture.free)
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
					if err := e.sketches.invalidate(); err != nil {
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

// deltaCost is what one delta query's bookkeeping did, by count.
type deltaCost struct {
	ops, visits int64
	live        []int // live roots per round
}

// TestDeltaQueryCostIndependentOfN is the bookkeeping cost pin: on the
// benchmark's trickle shape, the attach query (the intact class) and the
// detach query (the cut class, whose piece search must stop at the
// reserved node and never walk the path) each perform the same DSU
// operations, expand the same piece-search nodes and list the same live
// roots per round at 160 nodes as at 640. Carrying the cached partition
// over instead of re-unioning its forest, and listing roots off the plan
// instead of every node, is what makes the counts independent of n.
func TestDeltaQueryCostIndependentOfN(t *testing.T) {
	sizes := []uint32{160, 640}
	costs := make([][2]deltaCost, len(sizes)) // per size: attach, detach
	for i, n := range sizes {
		e, path, attach := reservedTrickle(t, Config{NumNodes: n, Seed: 99, Shards: 2})
		checkAgainstExact(t, e, n, path)
		for step, edges := range [][]stream.Edge{append(path, attach...), path} {
			for _, eg := range attach { // a toggle either way
				mustUpdate(t, e, eg.U, eg.V)
			}
			before := e.Stats().DeltaQueries
			checkAgainstExact(t, e, n, edges)
			if e.Stats().DeltaQueries != before+1 {
				t.Fatalf("n=%d step %d: the trickle query was not a delta query", n, step)
			}
			costs[i][step] = deltaCost{e.lastDeltaOps.Load(), e.lastDeltaVisits.Load(), slices.Clone(e.qs.liveRoots)}
		}
	}
	for step, name := range []string{"attach", "detach"} {
		small, large := costs[0][step], costs[1][step]
		t.Logf("%s: %d DSU ops, %d visits, live roots %v at n=%d; %d, %d, %v at n=%d",
			name, small.ops, small.visits, small.live, sizes[0], large.ops, large.visits, large.live, sizes[1])
		if small.ops != large.ops || small.visits != large.visits || !slices.Equal(small.live, large.live) {
			t.Fatalf("%s: the delta query's bookkeeping grows with n", name)
		}
	}
	if attach, detach := costs[0][0], costs[0][1]; attach.visits != 0 || detach.visits == 0 {
		t.Fatalf("visits attach=%d detach=%d: only the detach searches for pieces", attach.visits, detach.visits)
	}
}

// TestDeltaQueryWritesWhatChanged is the pin on what a delta query
// writes and allocates beyond its sketch work, on the benchmark's trickle
// shape at 160, 640 and 2,560 nodes: per attach and per detach query, the
// same DSU operations and piece-search visits, no rebuild of the kept
// state, and bytes allocated within the result's copy of the
// representatives and the forest (their capacities, which slices.Clone
// rounds up to the allocator's size class), the result's header and 256 B
// for the runtime's records. The copy
// is the one part that grows with n: 4 bytes a node and 8 a forest edge.
// The query is timed off the public API, whose copy of the answer is the
// caller's, and queries during which the runtime started an OS thread
// (allocsOf) are not counted.
func TestDeltaQueryWritesWhatChanged(t *testing.T) {
	sizes := []uint32{160, 640, 2560}
	type cost struct {
		ops, visits  int64
		bytes, bound uint64
	}
	costs := make([][2]cost, len(sizes)) // per size: attach, detach
	for i, n := range sizes {
		e, path, attach := reservedTrickle(t, Config{NumNodes: n, Seed: 99, Shards: 2})
		checkAgainstExact(t, e, n, path)
		for rep := 0; rep < 12; rep++ {
			for step := range costs[i] {
				for _, eg := range attach { // a toggle either way
					mustUpdate(t, e, eg.U, eg.V)
				}
				before := e.Stats().DeltaQueries
				var res *queryResult
				var err error
				b, clean := allocsOf(func() { res, err = e.query() })
				if err != nil {
					t.Fatal(err)
				}
				if e.Stats().DeltaQueries != before+1 {
					t.Fatalf("n=%d: the trickle query was not a delta query", n)
				}
				copies := uint64(cap(res.rep))*4 + uint64(cap(res.forest))*uint64(unsafe.Sizeof(stream.Edge{}))
				c := cost{e.lastDeltaOps.Load(), e.lastDeltaVisits.Load(), b, copies + uint64(unsafe.Sizeof(queryResult{})) + 256}
				if rep == 2 || rep > 2 && clean && b < costs[i][step].bytes {
					costs[i][step] = c // the least over the warm queries
				}
			}
		}
		if r := e.qs.restores; r != 0 {
			t.Fatalf("n=%d: %d rebuilds of the kept state over a trickle", n, r)
		}
	}
	for step, name := range []string{"attach", "detach"} {
		small := costs[0][step]
		for i, n := range sizes {
			c := costs[i][step]
			t.Logf("%s at n=%d: %d DSU ops, %d visits, %d B of %d", name, n, c.ops, c.visits, c.bytes, c.bound)
			if c.ops != small.ops || c.visits != small.visits {
				t.Fatalf("%s: the delta query's writes grow with n", name)
			}
			if c.bytes > c.bound {
				t.Fatalf("%s: %d B at n=%d, over the bound of %d B", name, c.bytes, n, c.bound)
			}
		}
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
// zero until a cached result exists, then exactly baseLimit slot-sized
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
			if got := e.capture.baseLimit(); got != mode.limit {
				t.Fatalf("baseLimit = %d, want %d", got, mode.limit)
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
