package core

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"unsafe"

	"graphzeppelin/internal/dsu"
	"graphzeppelin/internal/stream"
)

// This file pins what a delta query costs, by count: device reads out of
// core, contribution terms per round in RAM, the DSU operations, piece
// search visits and live roots that its bookkeeping takes, and the
// baseline's footprint — logs of what changed, images only past a log's
// cap, captured only when a query can use them, bounded engine-wide, and
// visible in Stats.MemoryBytes.

// baselineCounts returns how many images and logs the baseline holds, and
// how many image buffers and log arrays sit in the capture's pools.
func baselineCounts(e *Engine) (images, logs, pooledBufs, pooledLogs int) {
	c := &e.capture
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range c.baseNodes {
		if c.logs[v] != nil {
			logs++
		}
	}
	return len(c.base), logs, len(c.free), len(c.logFree)
}

// captureBytes returns the capture's share of Stats.MemoryBytes, after a
// drain.
func captureBytes(t *testing.T, e *Engine) int {
	t.Helper()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	e.capture.mu.Lock()
	defer e.capture.mu.Unlock()
	return e.capture.bytes()
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
// in the write-back cache. Once they are not, the attach (the intact
// class, whose dirty members contribute their logs alone) still reads
// nothing, and the detach (the cut class, whose enumerated piece
// contributes live sketches) at most one read per dirty group per round —
// never the giant component's slots.
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
				case step == 0 && reads != 0:
					t.Fatalf("attach: %d device reads, want 0: the intact class reads logs, not the store", reads)
				case step == 1 && evict && (reads == 0 || reads > uint64(after.QueryRounds)*dirtyGroups):
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
// result exists for an entry to be relative to; once one does, a trickle
// logs exactly its first-dirtied nodes, with no image, and the next query
// pools their logs.
func TestBeforeImagesOnlyWhenUsable(t *testing.T) {
	const n = 64
	e := pathEngine(t, Config{NumNodes: n, Seed: 95, Shards: 2}, n-1)
	defer e.Close()
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if images, logs, bufs, pooled := baselineCounts(e); images+logs+bufs+pooled != 0 {
		t.Fatalf("bulk load with no query captured %d images and %d logs and pooled %d buffers and %d logs", images, logs, bufs, pooled)
	}
	if _, _, err := e.ConnectedComponents(); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, e, 0, 9)
	mustUpdate(t, e, 0, 9)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if images, logs, bufs, pooled := baselineCounts(e); images != 0 || logs != 2 || bufs+pooled != 0 {
		t.Fatalf("trickle on two nodes: %d images, %d logs, %d+%d pooled; want 0, 2 and 0", images, logs, bufs, pooled)
	}
	if _, _, err := e.ConnectedComponents(); err != nil {
		t.Fatal(err)
	}
	if images, logs, bufs, pooled := baselineCounts(e); images+logs+bufs != 0 || pooled != 2 {
		t.Fatalf("after the delta query: %d images, %d logs, %d buffers, %d logs pooled; want 0, 0, 0 and 2", images, logs, bufs, pooled)
	}
}

// TestBeforeImageFootprint runs slice -> query -> trickle -> query cycles
// in RAM and out of core and pins the baseline's share of
// Stats.MemoryBytes: zero until a cached result exists, then 8 B for each
// index its logs hold — maxBase logs of a slice's two indices a node,
// pooled and reused by every later cycle, however many shards captured
// them — plus a slot for each image, which only a node pushed past the
// log's cap takes, and which the next query drops. Four nodes are pushed
// past it. In RAM, where the budget is a slot a node and maxBase more,
// each holds an image. Out of core the cache is 13 slots and the budget a
// quarter of it, 3.25 slots: three images fit, the fourth node is refused
// and left without an entry, and its component re-solves from singletons.
// Both queries are exact.
func TestBeforeImageFootprint(t *testing.T) {
	const n = 128
	probe, err := NewEngine(Config{NumNodes: n, Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	slot := probe.slotSize
	probe.Close()
	for _, mode := range []struct {
		name   string
		cfg    Config
		budget func(maxBase int) int
		images int // of the four nodes pushed past the cap
	}{
		{"ram", Config{Shards: 4}, func(maxBase int) int { return (n + maxBase) * slot }, 4},
		{"disk", Config{Shards: 4, SketchesOnDisk: true, NodesPerGroup: 4, CacheBytes: int64(13 * slot)}, func(int) int { return 13 * slot / 4 }, 3},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cfg := mode.cfg
			cfg.NumNodes, cfg.Seed = n, 97
			e, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			c, maxBase := &e.capture, e.capture.maxBase
			if got, want := c.budget, mode.budget(maxBase); got != want {
				t.Fatalf("capture budget = %d, want %d", got, want)
			}
			// captured is MemoryBytes less everything the capture does not
			// hold.
			fixed := int64(-1)
			captured := func() int64 {
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
			present := map[stream.Edge]bool{}
			toggle := func(u, w uint32) {
				t.Helper()
				mustUpdate(t, e, u, w)
				eg := stream.Edge{U: min(u, w), V: max(u, w)}
				present[eg] = !present[eg]
			}
			edges := func() []stream.Edge {
				var es []stream.Edge
				for eg, ok := range present {
					if ok {
						es = append(es, eg)
					}
				}
				return es
			}
			slice := func(shift uint32) {
				t.Helper()
				for u := uint32(0); u < n; u++ {
					toggle(u, (u+shift)%n)
				}
			}
			slice(1)
			if got := captured(); got != 0 {
				t.Fatalf("bulk load: %d capture bytes in MemoryBytes, want 0", got)
			}
			want := int64(8 * 2 * maxBase)
			for cycle := uint32(0); cycle < 3; cycle++ {
				if _, _, err := e.ConnectedComponents(); err != nil {
					t.Fatal(err)
				}
				slice(2 + cycle)
				if got := captured(); got != want {
					t.Fatalf("cycle %d after the slice: %d capture bytes, want %d (%d logs of 2 indices)", cycle, got, want, maxBase)
				}
				if images, logs, _, _ := baselineCounts(e); images != 0 || logs != maxBase {
					t.Fatalf("cycle %d after the slice: %d images and %d logs, want none and %d", cycle, images, logs, maxBase)
				}
				checkAgainstExact(t, e, n, edges())
				toggle(cycle, cycle+40)
				if got := captured(); got != want {
					t.Fatalf("cycle %d after the trickle: %d capture bytes, want %d", cycle, got, want)
				}
				if images, logs, _, pooled := baselineCounts(e); images != 0 || logs != 2 || logs+pooled != maxBase {
					t.Fatalf("cycle %d: %d images, %d logs + %d pooled, want no image and 2 live logs of %d", cycle, images, logs, pooled, maxBase)
				}
			}
			// The last trickle's nodes, 2 and 42, hold a log of one index
			// each; a gutter of toggles of their edge passes the cap, and so
			// does a first batch at clean nodes 50 and 60.
			for i := 0; i < c.logCap; i++ {
				toggle(2, 42)
			}
			for i := 0; i <= c.logCap; i++ {
				toggle(50, 60)
			}
			if got, images := captured(), want+int64(mode.images*slot); got != images {
				t.Fatalf("after the overflow: %d capture bytes, want %d (the logs' and %d images)", got, images, mode.images)
			}
			images, logs, _, _ := baselineCounts(e)
			refused := 0
			for _, v := range []uint32{2, 42, 50, 60} {
				if c.logs[v] != nil {
					t.Fatalf("node %d kept its log past the cap", v)
				}
				if c.base[v] == nil {
					refused++
				}
			}
			if images != mode.images || refused != 4-mode.images || logs != 0 {
				t.Fatalf("after the overflow: %d images, %d refused, %d logs; want %d, %d and none", images, refused, logs, mode.images, 4-mode.images)
			}
			classes := deltaClassCounts(e)
			checkAgainstExact(t, e, n, edges())
			if singletons := deltaClassCounts(e)[classSingletons] - classes[classSingletons]; singletons != uint64(4-mode.images) {
				t.Fatalf("%d components re-solved from singletons, want %d", singletons, 4-mode.images)
			}
			if got := captured(); got != want {
				t.Fatalf("after the query: %d capture bytes, want the pooled logs' %d", got, want)
			}
		})
	}
}

// logStores are the placements the log pins run in: out of core the cache
// is large enough for the capture's quarter of it to hold an image.
var logStores = []struct {
	name string
	cfg  Config
}{
	{"ram", Config{Shards: 2}},
	{"disk", Config{Shards: 2, SketchesOnDisk: true, NodesPerGroup: 4, CacheBytes: 1 << 20}},
}

// TestCaptureTrickleLogsIndices pins what a trickle costs the capture, in
// both stores: k edges at one clean node log its k indices and one at each
// far end, 16k bytes of Stats.MemoryBytes and no image, where each
// endpoint's first change used to copy a slot; and the delta query off the
// logs is exact.
func TestCaptureTrickleLogsIndices(t *testing.T) {
	const n, k = 128, 5
	for _, store := range logStores {
		t.Run(store.name, func(t *testing.T) {
			cfg := store.cfg
			cfg.NumNodes, cfg.Seed = n, 117
			e := pathEngine(t, cfg, n-1)
			defer e.Close()
			edges := pathEdges(n)
			checkAgainstExact(t, e, n, edges)
			before, memBefore := captureBytes(t, e), e.Stats()
			for j := uint32(0); j < k; j++ {
				mustUpdate(t, e, 3, 60+j)
				edges = append(edges, stream.Edge{U: 3, V: 60 + j})
			}
			if got := captureBytes(t, e) - before; got != 8*2*k || got >= e.slotSize {
				t.Fatalf("a trickle of %d edges added %d capture bytes, want %d (a slot is %d)", k, got, 8*2*k, e.slotSize)
			}
			memAfter := e.Stats()
			if got := (memAfter.MemoryBytes - memAfter.SketchCache.CachedBytes) - (memBefore.MemoryBytes - memBefore.SketchCache.CachedBytes); got != 8*2*k {
				t.Fatalf("MemoryBytes less the cache grew by %d, want the logs' %d", got, 8*2*k)
			}
			if images, logs, _, _ := baselineCounts(e); images != 0 || logs != k+1 {
				t.Fatalf("%d images and %d logs, want no image and %d logs", images, logs, k+1)
			}
			deltas := e.Stats().DeltaQueries
			checkAgainstExact(t, e, n, edges)
			if e.Stats().DeltaQueries != deltas+1 {
				t.Fatal("the trickle query was not a delta query")
			}
		})
	}
}

// pathEdges returns the edges pathEngine(n-1) inserts.
func pathEdges(n uint32) []stream.Edge {
	var edges []stream.Edge
	for u := uint32(0); u+1 < n; u++ {
		edges = append(edges, stream.Edge{U: u, V: u + 1})
	}
	return edges
}

// TestCaptureLogOverflowConvertsOnce pushes a logged node past the log's
// cap, in both stores: path leaf 0's edge is deleted (a log of one index),
// then toggled against 64 partners, an even number of times each, until
// node 0 has seen more indices than a log holds. Node 0's log converts
// into one image, its pre-change stack with the deletion toggled back
// out; the partners keep their logs. The next query is a delta query of
// the cut class, not from singletons, and exact: an image that kept the
// deletion would hide it from the anchor piece, which would sample the
// deleted edge and join node 0 back.
func TestCaptureLogOverflowConvertsOnce(t *testing.T) {
	const n, partners = 1024, 64
	for _, store := range logStores {
		t.Run(store.name, func(t *testing.T) {
			cfg := store.cfg
			cfg.NumNodes, cfg.Seed = n, 119
			e := pathEngine(t, cfg, n-1)
			defer e.Close()
			edges := pathEdges(n)
			checkAgainstExact(t, e, n, edges)
			mustUpdate(t, e, 0, 1)
			edges = edges[1:]
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			rounds := (e.capture.logCap + 2*partners - 1) / (2 * partners)
			for r := 0; r < 2*rounds; r++ {
				for p := uint32(0); p < partners; p++ {
					mustUpdate(t, e, 0, 2+p)
				}
			}
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			c := &e.capture
			if images, logs, _, _ := baselineCounts(e); images != 1 || c.base[0] == nil || c.logs[0] != nil || logs != partners+1 {
				t.Fatalf("%d images and %d logs; want node 0's one image, and logs for node 1 and the %d partners", images, logs, partners)
			}
			classes, deltas := deltaClassCounts(e), e.Stats().DeltaQueries
			checkAgainstExact(t, e, n, edges)
			after := deltaClassCounts(e)
			if e.Stats().DeltaQueries != deltas+1 || after[classSingletons] != classes[classSingletons] || after[classCut] == classes[classCut] {
				t.Fatalf("classes %v -> %v: want a delta query of the cut class, none from singletons", classes, after)
			}
		})
	}
}

// TestCaptureByteChangeConvertsLog merges a checkpoint into a logged node,
// in both stores: path leaf 0 logs a toggle pair, then a merged side
// checkpoint holding edge (0,1) deletes that forest edge by bytes. The
// merge converts node 0's log into an image, so the next query, a delta
// query, sees the deletion at both ends and is exact; a log kept beside
// the merge would miss it at node 0 and join node 0 back.
func TestCaptureByteChangeConvertsLog(t *testing.T) {
	const n = 128
	for _, store := range logStores {
		t.Run(store.name, func(t *testing.T) {
			cfg := store.cfg
			cfg.NumNodes, cfg.Seed = n, 121
			e := pathEngine(t, cfg, n-1)
			defer e.Close()
			edges := pathEdges(n)
			checkAgainstExact(t, e, n, edges)
			mustUpdate(t, e, 0, 5)
			mustUpdate(t, e, 0, 5)
			if err := e.Drain(); err != nil {
				t.Fatal(err)
			}
			if e.capture.logs[0] == nil {
				t.Fatal("the toggle pair left node 0 unlogged")
			}
			side, err := NewEngine(Config{NumNodes: n, Seed: 121})
			if err != nil {
				t.Fatal(err)
			}
			defer side.Close()
			mustUpdate(t, side, 0, 1)
			var buf bytes.Buffer
			if err := side.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			if err := e.MergeCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			if e.capture.logs[0] != nil || e.capture.base[0] == nil {
				t.Fatal("the merge kept node 0's log instead of converting it")
			}
			deltas := e.Stats().DeltaQueries
			checkAgainstExact(t, e, n, edges[1:])
			if e.Stats().DeltaQueries != deltas+1 {
				t.Fatal("the query after the merge was not a delta query")
			}
		})
	}
}

// TestCaptureFallbackCapturesNothing pins that a query falling back to a
// from-scratch run logs nothing for the baseline its result supersedes:
// a slice dirtying every node waits in the gutters, past the delta
// query's threshold, and the drain that applies it under the fallback
// leaves the capture with no log, no image and nothing pooled.
func TestCaptureFallbackCapturesNothing(t *testing.T) {
	const n = 128
	for _, store := range logStores {
		t.Run(store.name, func(t *testing.T) {
			cfg := store.cfg
			cfg.NumNodes, cfg.Seed = n, 123
			e := pathEngine(t, cfg, n-1)
			defer e.Close()
			edges := pathEdges(n)
			checkAgainstExact(t, e, n, edges)
			for u := uint32(0); u < n; u++ {
				mustUpdate(t, e, u, (u+2)%n)
				edges = append(edges, stream.Edge{U: u, V: (u + 2) % n})
			}
			fallbacks := e.Stats().DeltaFallbacks
			checkAgainstExact(t, e, n, edges)
			if e.Stats().DeltaFallbacks != fallbacks+1 {
				t.Fatal("the query after the slice did not fall back")
			}
			if images, logs, bufs, pooled := baselineCounts(e); images+logs+bufs+pooled != 0 {
				t.Fatalf("the fallback's drain captured: %d images, %d logs, %d buffers and %d logs pooled", images, logs, bufs, pooled)
			}
		})
	}
}

// TestCaptureFailedChangeDropsEntry pins end's error path: a change that
// failed may not have filled the buffer begin handed out, so neither a
// logged node's conversion nor a first change's image stays the node's
// entry. Both nodes stay listed without one (their components re-solve
// from singletons), and the buffer returns to the pool.
func TestCaptureFailedChangeDropsEntry(t *testing.T) {
	const n = 64
	e := pathEngine(t, Config{NumNodes: n, Seed: 125}, n-1)
	defer e.Close()
	if _, _, err := e.ConnectedComponents(); err != nil {
		t.Fatal(err)
	}
	mustUpdate(t, e, 0, 9)
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	c, failed := &e.capture, errors.New("change failed")
	if c.logs[0] == nil {
		t.Fatal("the trickle left node 0 unlogged")
	}
	// A change of bytes converts node 0's log; node 20's first change of
	// bytes takes an image. The workers are idle, as for an install.
	for _, v := range []uint32{0, 20} {
		op := c.begin(v, e.wantsBase(v), nil)
		if op.img == nil {
			t.Fatalf("node %d: the change took no image", v)
		}
		c.end(v, op, failed)
	}
	for _, v := range []uint32{0, 20} {
		if c.base[v] != nil || c.logs[v] != nil {
			t.Fatalf("node %d kept an entry past a failed change", v)
		}
	}
	if listed, ok := c.listedCount(); !ok || listed != 3 {
		t.Fatalf("%d nodes listed (ok %v), want 0, 9 and 20", listed, ok)
	}
	// The second change took the buffer the first one returned.
	if images, _, bufs, _ := baselineCounts(e); images != 0 || bufs != 1 || c.held != 0 {
		t.Fatalf("%d images, %d buffers pooled, %d held; want none, 1 and none", images, bufs, c.held)
	}
}
