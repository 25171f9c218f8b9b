package gutter

import (
	"sync"
	"sync/atomic"

	"graphzeppelin/internal/stream"
)

// Sink receives a full batch of buffered updates for one node. The engine
// wires this to the per-shard work queues; tests wire it to a recorder.
// The batch's Others slice is owned by the consumer until it hands it back
// through Buffer.Recycle. With multiple producers the sink may be called
// concurrently (from different stripes); implementations that need
// per-destination ordering serialize internally, as the engine's sink does
// with its per-shard push mutex.
type Sink func(Batch)

// LeafGutters is the leaf-only buffering structure of Section 5.1: one
// in-RAM gutter per graph node, grouped into node groups of nodesPerGroup
// consecutive nodes. The paper sizes each gutter at a factor f of the
// node-sketch size (default f = 1/2); here the caller passes the resulting
// per-node capacity in updates directly.
//
// Flushes are group-aware: a group flushes when its combined buffered
// updates reach nodesPerGroup × capacity, emitting every non-empty gutter
// of the group back to back. Downstream, one such burst touches one
// node-group slot of the out-of-core sketch store, so the whole burst
// costs a single group fetch through the write-back cache instead of one
// slot round trip per node (Lemma 4's grouped flush). With nodesPerGroup
// = 1 (RAM mode) this degenerates to the classic per-node fill trigger.
// Within a group, per-node buffers may grow past the nominal capacity —
// the group total, not the per-node fill, is the trigger — so skewed
// nodes borrow budget from their quiet neighbors.
//
// Gutters are partitioned into stripes by group, each stripe guarded by
// its own mutex, so any number of producers may insert concurrently;
// grouping by stripe keeps a group's flush under one lock. InsertEdges
// groups a whole batch by stripe first, so it takes each stripe lock at
// most once per call. Recycle may be called concurrently by the consuming
// workers.
//
// Two layout decisions keep concurrent producers off each other's cache
// lines: the stripe mutexes are padded to one line each (eight packed
// sync.Mutex values share a line, so contended stripes would invalidate
// their neighbors on every lock), and stripes cover *contiguous* group
// ranges rather than interleaving groups round-robin — neighboring
// groups' fill counters and buffer headers, which share lines, then
// belong to the same stripe and are only ever written under one lock.
type LeafGutters struct {
	bufs      [][]uint32
	capacity  int
	npg       uint32 // nodes per group
	groupCap  int    // npg × capacity: the group flush trigger
	groupFill []int32
	stripes   uint32
	perStripe uint32 // groups per stripe (contiguous ranges)
	locks     []paddedMutex
	sink      Sink
	free      freelist
	scratch   *sync.Pool // *stripePlan; apart, so a used pool cannot pin the gutters (and the sink's engine) past their life
	buffered  atomic.Uint64
	flushes   atomic.Uint64
}

// paddedMutex is a sync.Mutex alone on its cache line, so producers
// contending for one stripe never bounce the line of a neighboring
// stripe's lock.
type paddedMutex struct {
	sync.Mutex
	_ [CacheLine - 8]byte
}

// endpoint is one direction of a buffered edge update: other is appended
// to node's gutter.
type endpoint struct {
	node, other uint32
}

// stripePlan is the per-InsertEdges scratch that groups a batch's endpoint
// updates by stripe so each stripe lock is taken once.
type stripePlan struct {
	byStripe [][]endpoint
}

// NewLeafGutters returns per-node gutters holding capacity updates each,
// organized into groups of nodesPerGroup consecutive nodes (minimum 1)
// that fill and flush together, lock-striped for stripes concurrent
// producers (minimum 1, clamped to the group count).
func NewLeafGutters(numNodes uint32, capacity, stripes, nodesPerGroup int, sink Sink) *LeafGutters {
	if capacity < 1 {
		capacity = 1
	}
	if nodesPerGroup < 1 {
		nodesPerGroup = 1
	}
	if numNodes > 0 && uint32(nodesPerGroup) > numNodes {
		nodesPerGroup = int(numNodes)
	}
	numGroups := (int(numNodes) + nodesPerGroup - 1) / nodesPerGroup
	if stripes < 1 {
		stripes = 1
	}
	if stripes > numGroups && numGroups > 0 {
		stripes = numGroups
	}
	perStripe := 1
	if numGroups > 0 {
		perStripe = (numGroups + stripes - 1) / stripes
	}
	g := &LeafGutters{
		bufs:      make([][]uint32, numNodes),
		capacity:  capacity,
		npg:       uint32(nodesPerGroup),
		groupCap:  capacity * nodesPerGroup,
		groupFill: make([]int32, numGroups),
		stripes:   uint32(stripes),
		perStripe: uint32(perStripe),
		locks:     make([]paddedMutex, stripes),
		sink:      sink,
		scratch:   new(sync.Pool),
	}
	if nodesPerGroup == 1 {
		// A forced Flush hands out every nonempty gutter's buffer at once
		// and the next insert per node wants one back. Ungrouped gutters
		// never outgrow capacity and, in a dense stream, all hold a buffer
		// at once anyway, so keeping one per node adds nothing to the
		// high-water mark. Grouped gutters grow past capacity and mostly
		// flush far from full: keeping every buffer they ever emitted
		// pinned 46 MiB more than the default bound on the benchmark's
		// disk-social workload (89 → 135 MiB peak RSS).
		g.free.max = max(int(numNodes), freelistDefault)
	}
	return g
}

// Capacity returns the per-gutter capacity in updates.
func (g *LeafGutters) Capacity() int { return g.capacity }

// NodesPerGroup returns the node-group cardinality.
func (g *LeafGutters) NodesPerGroup() int { return int(g.npg) }

// Stripes returns the number of lock stripes.
func (g *LeafGutters) Stripes() int { return len(g.locks) }

// stripeOf returns the lock stripe guarding node's group. Stripes own
// contiguous group ranges of perStripe groups each.
func (g *LeafGutters) stripeOf(node uint32) uint32 {
	return (node / g.npg) / g.perStripe
}

// flushGroupLocked emits every non-empty gutter of group grp back to back,
// in node order, to sink and resets the group's fill. The caller holds the
// group's stripe lock.
func (g *LeafGutters) flushGroupLocked(grp uint32, sink Sink) {
	lo := grp * g.npg
	hi := lo + g.npg
	if n := uint32(len(g.bufs)); hi > n {
		hi = n
	}
	for node := lo; node < hi; node++ {
		buf := g.bufs[node]
		if len(buf) == 0 {
			continue
		}
		sink(Batch{Node: node, Others: buf})
		g.flushes.Add(1)
		g.bufs[node] = nil
	}
	g.groupFill[grp] = 0
}

// insertLocked buffers other in node's gutter, flushing the whole group
// as a burst of batches when the group's combined fill reaches the group
// capacity. The caller holds node's stripe lock.
func (g *LeafGutters) insertLocked(node, other uint32) {
	buf := g.bufs[node]
	if buf == nil {
		buf = g.free.get(g.capacity)
	}
	g.bufs[node] = append(buf, other)
	g.buffered.Add(1)
	grp := node / g.npg
	g.groupFill[grp]++
	if int(g.groupFill[grp]) >= g.groupCap {
		g.flushGroupLocked(grp, g.sink)
	}
}

// Insert buffers the update (u, v) in u's gutter. Callers buffer each edge
// update under both endpoints, mirroring the paper's edge_update.
func (g *LeafGutters) Insert(u, v uint32) {
	s := g.stripeOf(u)
	g.locks[s].Lock()
	g.insertLocked(u, v)
	g.locks[s].Unlock()
}

// InsertEdges buffers a batch of edge updates, grouping the 2×len(edges)
// endpoint updates by stripe first so each stripe lock is acquired at most
// once for the whole batch.
func (g *LeafGutters) InsertEdges(edges []stream.Edge) error {
	plan := g.getPlan()
	for _, e := range edges {
		su, sv := g.stripeOf(e.U), g.stripeOf(e.V)
		plan.byStripe[su] = append(plan.byStripe[su], endpoint{e.U, e.V})
		plan.byStripe[sv] = append(plan.byStripe[sv], endpoint{e.V, e.U})
	}
	g.insertPlan(plan)
	return nil
}

// InsertHalves buffers each half (U, V) in U's gutter alone, grouped by
// stripe like InsertEdges.
func (g *LeafGutters) InsertHalves(halves []stream.Edge) error {
	plan := g.getPlan()
	for _, h := range halves {
		s := g.stripeOf(h.U)
		plan.byStripe[s] = append(plan.byStripe[s], endpoint{h.U, h.V})
	}
	g.insertPlan(plan)
	return nil
}

// getPlan returns an empty stripe plan from the scratch pool.
func (g *LeafGutters) getPlan() *stripePlan {
	if plan, _ := g.scratch.Get().(*stripePlan); plan != nil {
		return plan
	}
	return &stripePlan{byStripe: make([][]endpoint, g.stripes)}
}

// insertPlan buffers a stripe-grouped plan, taking each stripe lock once,
// and returns the plan to the scratch pool.
func (g *LeafGutters) insertPlan(plan *stripePlan) {
	for s := range plan.byStripe {
		eps := plan.byStripe[s]
		if len(eps) == 0 {
			continue
		}
		g.locks[s].Lock()
		for _, ep := range eps {
			g.insertLocked(ep.node, ep.other)
		}
		g.locks[s].Unlock()
		plan.byStripe[s] = eps[:0]
	}
	g.scratch.Put(plan)
}

// Flush force-flushes every nonempty gutter (the cleanup step before a
// connectivity query) to to[0], or to the built-in sink, group by group in
// ascending order — so in node order — taking each stripe lock once.
func (g *LeafGutters) Flush(to ...Sink) error {
	sink := g.sink
	if len(to) > 0 {
		sink = to[0]
	}
	numGroups := uint32(len(g.groupFill))
	for s := uint32(0); s < g.stripes; s++ {
		lo := s * g.perStripe
		hi := lo + g.perStripe
		if hi > numGroups {
			hi = numGroups
		}
		g.locks[s].Lock()
		for grp := lo; grp < hi; grp++ {
			if g.groupFill[grp] > 0 {
				g.flushGroupLocked(grp, sink)
			}
		}
		g.locks[s].Unlock()
	}
	return nil
}

// Recycle returns a flushed batch buffer to the gutter freelist.
func (g *LeafGutters) Recycle(buf []uint32) { g.free.put(buf) }

// Close releases nothing; the gutters live entirely in RAM.
func (g *LeafGutters) Close() error { return nil }

// Buffered returns the total updates ever inserted; Flushes the number of
// batches emitted. Diagnostics for the buffering experiments.
func (g *LeafGutters) Buffered() uint64 { return g.buffered.Load() }

// Flushes returns the number of batches emitted so far.
func (g *LeafGutters) Flushes() uint64 { return g.flushes.Load() }
