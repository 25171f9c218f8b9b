package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/dsu"
	"graphzeppelin/internal/stream"
)

// This file is the engine's query subsystem. Three design points, all in
// service of the interleaved-query workload (Figure 16) and the paper's
// storage-friendly query scan (Lemma 5):
//
//  1. Lazy per-round materialization. Boruvka round r needs only the
//     round-r supernode sketch of each still-live component, so the query
//     materializes exactly those — one single-round arena per round,
//     rebuilt from the DSU — instead of cloning all n × Rounds sketches
//     upfront. Components certified complete (an empty cut sketch) drop
//     out of every later round.
//
//  2. One contribution list per round. prepareRound lists, in node order,
//     every (node, root, source) term of every live root's aggregate, and
//     the sketch store sums it (sampleRound). A from-scratch round lists
//     no member of its giant, a live root with more members than all the
//     others together: its aggregate is the XOR of theirs (dominant). Out
//     of core, a from-scratch query's round 0 is the paper's sequential
//     scan (Lemma 5): one pass in node order, O(V·slot/B) blocks in a
//     handful of ops, never one point Read per node, that samples and
//     unions round 0 as it goes and gathers the rounds after it per
//     component (deviceStore.firstRound), so a query reads the store about
//     once, not once per round.
//
//  3. Ingest-epoch caching. The engine bumps an epoch counter on every
//     accepted update batch; a full query stores its result tagged with
//     the epoch it answered at. While the epoch is unchanged, Connected /
//     ConnectedMany / ConnectedComponents / SpanningForest are served
//     from the cached result — point queries cost O(1) between updates.
//
//  4. Incremental maintenance between epochs. When the cache is stale but
//     a previous result exists, the query reads the per-node change stamps
//     the apply path maintains (engine.go) against the cut that result
//     took: a component of the cached forest with no member stamped since
//     had no incident edge toggled since that result — any toggle lands a
//     batch on both endpoints' sketches, stamping them — so its forest
//     edges are still genuine and its cut is still empty. Those
//     components carry over wholesale: the DSU starts as the cached
//     partition, one star per component, and only the affected components
//     are split back. An affected component is re-certified from the
//     before-images the capture took at each node's first change since
//     that cut (capture.go), in RAM and out of core alike. Its sketch work and its
//     bookkeeping are both set by the dirty set rather than the component:
//     a cut component's pieces are found by searching the cached forest
//     outward from the removed edges, in lockstep, until one search is
//     left, and the giant side of a detach is never enumerated
//     (runDeltaBoruvka has the classes and the argument). Above
//     deltaQueryMaxDirtyFrac dirty nodes the query falls back to the
//     from-scratch run; either way the caller sees an identical contract.

// ErrQueryFailed is returned when Boruvka emulation exhausts the per-node
// sketch rounds before every component's spanning tree is certified
// complete. The probability of this is polynomially small for the default
// depth (the paper's 5000 trials and this test suite observed zero
// failures); it becomes likely only when WithRounds is set below the
// default ⌈log2 V⌉+2. The partial forest recovered before the rounds ran
// out is still returned alongside the error: every edge in it is a
// genuine edge of the graph and the edges are acyclic, but some pair of
// connected nodes may remain in different trees. Callers wanting more
// slack raise WithRounds (depth) or WithColumns (per-round success
// probability) at construction time — the sketches are built for a fixed
// depth, so no retry with fresh randomness is possible after the fact.
var ErrQueryFailed = errors.New("core: connectivity query ran out of sketch rounds")

// queryResult is one full query's answer, tagged with the ingest epoch it
// was computed at. It is immutable once published: readers share the
// slices, so the public accessors copy anything they hand to callers that
// could mutate it.
type queryResult struct {
	epoch uint64
	// cut is the change-tracking cut taken when the result was cached: the
	// nodes stamped above it are exactly those changed since the sketch
	// state the result observed (an adopted baseline's cut is the
	// adoption's, its epoch deliberately staled so the fast path cannot
	// serve it).
	cut uint64
	// delta marks a result produced by the incremental path (including a
	// zero-dirty re-tag of the previous result).
	delta  bool
	forest []stream.Edge
	rep    []uint32 // node -> component representative
	count  int      // number of components
}

// query answers the current connectivity query, from the epoch cache when
// the graph is unchanged since the last full query, and by running lazy
// Boruvka over a fresh snapshot otherwise. The returned result is shared
// and must be treated as read-only. On ErrQueryFailed the partial result
// is returned alongside the error (and is not cached).
func (e *Engine) query() (*queryResult, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if e.ranged {
		return nil, ErrRangeEngine
	}
	// Fast path: no accepted update since the cached answer — serve it
	// without quiescing the pipeline. A concurrent producer that bumps
	// the epoch right after the check linearizes after this query.
	if r := e.queryCache.Load(); r != nil && r.epoch == e.epoch.Load() {
		e.cacheHits.Add(1)
		return r, nil
	}
	e.quiesce.Lock()
	defer e.quiesce.Unlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := e.drainLocked(); err != nil {
		return nil, err
	}
	// Producers are excluded here, so the epoch is stable; re-check the
	// cache in case another query refreshed it while we waited for the
	// lock.
	epoch := e.epoch.Load()
	if r := e.queryCache.Load(); r != nil && r.epoch == epoch {
		e.cacheHits.Add(1)
		return r, nil
	}
	res, err := e.runQueryLocked(epoch)
	if err != nil {
		return res, err
	}
	e.cacheResultLocked(res)
	return res, nil
}

// runQueryLocked answers a cache-missed query, incrementally off the
// previous cached result when the dirty set allows it and from scratch
// otherwise. The caller holds the quiesce write lock with the workers
// drained (so shard state, the stamps included, is stable).
func (e *Engine) runQueryLocked(epoch uint64) (*queryResult, error) {
	q := e.session()
	prev := e.queryCache.Load()
	if !e.cfg.NoDeltaQuery && prev != nil {
		q.dirty = e.changedSince(prev.cut, q.dirty[:0])
		if len(q.dirty) == 0 {
			// The epoch moved but no sketch changed since prev was cached
			// (e.g. an adopted baseline whose diff came up empty): prev's
			// answer is exactly current — re-tag it at the new epoch.
			e.deltaQueries.Add(1)
			return &queryResult{
				epoch: epoch, delta: true,
				forest: prev.forest, rep: prev.rep, count: prev.count,
			}, nil
		}
		if float64(len(q.dirty)) <= deltaQueryMaxDirtyFrac*float64(e.cfg.NumNodes) {
			res, ok, err := e.runDeltaBoruvka(q, epoch, prev)
			if err != nil {
				return nil, err
			}
			if ok {
				e.deltaQueries.Add(1)
				return res, nil
			}
			// The affected components failed to certify within the sketch
			// depth; the from-scratch run is the correctness backstop.
			q.reset()
		}
		e.deltaFallbacks.Add(1)
	}
	return e.runBoruvka(q, epoch)
}

// session returns the engine's one query session, reset for a new query;
// the first query makes it. Queries hold the quiesce write lock, so one
// session serves them all and its scratch is allocated once, at its
// largest shape.
func (e *Engine) session() *querySession {
	if e.qs == nil {
		e.qs = newQuerySession(int(e.cfg.NumNodes))
	} else {
		e.qs.reset()
	}
	return e.qs
}

// cacheResultLocked publishes a successful query result at a fresh cut:
// the result observed every change stamped so far, so the next query's
// delta starts from here. Failed results are never cached and take no
// cut, so the next query still sees everything they saw. The caller holds
// the quiesce write lock with the workers idle.
func (e *Engine) cacheResultLocked(res *queryResult) {
	res.cut = e.cut.Add(1)
	e.queryCache.Store(res)
	// The images' baseline is superseded by res: the next first change of
	// a node captures a fresh image relative to it.
	e.capture.releaseBase()
}

// SpanningForest flushes all buffered updates and recovers a spanning
// forest of the current graph by emulating Boruvka's algorithm over the
// sketches (Figure 9): in round r, each live component queries its round-r
// supernode sketch — the XOR of its members' round-r sketches — for an
// edge leaving the component; found edges merge components. Components
// whose cut sketch is empty are complete and leave the computation.
//
// The engine's live sketches are not consumed: each round materializes its
// own supernode snapshot, so ingestion can continue afterwards (the
// interleaved query workload of Figure 16). Safe to call from any
// goroutine, even with ingestion in flight: a full query holds the quiesce
// write lock and answers over a consistent cut containing every update
// whose ingest call returned before the query began; a cached query (no
// update since the last full one) is served without quiescing at all.
//
// On ErrQueryFailed the partial forest recovered so far is returned with
// the error; see ErrQueryFailed for its exact guarantees. Returns
// ErrClosed after Close.
func (e *Engine) SpanningForest() ([]stream.Edge, error) {
	r, err := e.query()
	if r == nil {
		return nil, err
	}
	forest := make([]stream.Edge, len(r.forest))
	copy(forest, r.forest)
	return forest, err
}

// ConnectedComponents returns, for every node, a component representative,
// plus the number of components. Served from the epoch cache (no sketch
// work) when the graph is unchanged since the last full query.
func (e *Engine) ConnectedComponents() (rep []uint32, count int, err error) {
	r, err := e.query()
	if err != nil {
		return nil, 0, err
	}
	rep = make([]uint32, len(r.rep))
	copy(rep, r.rep)
	return rep, r.count, nil
}

// Connected reports whether nodes u and v are currently in the same
// component. Between updates it is O(1): the cached representatives of the
// last full query answer directly. Both ids must be < NumNodes.
func (e *Engine) Connected(u, v uint32) (bool, error) {
	if u >= e.cfg.NumNodes || v >= e.cfg.NumNodes {
		return false, fmt.Errorf("core: nodes (%d,%d) out of range for %d nodes", u, v, e.cfg.NumNodes)
	}
	r, err := e.query()
	if err != nil {
		return false, err
	}
	return r.rep[u] == r.rep[v], nil
}

// ConnectedMany answers a batch of connectivity point queries in one pass:
// at most one full query (none if the cache is current), then O(1) per
// pair off the shared representative vector. out[i] answers pairs[i].
func (e *Engine) ConnectedMany(pairs []stream.Pair) ([]bool, error) {
	for _, p := range pairs {
		if p.U >= e.cfg.NumNodes || p.V >= e.cfg.NumNodes {
			return nil, fmt.Errorf("core: nodes (%d,%d) out of range for %d nodes", p.U, p.V, e.cfg.NumNodes)
		}
	}
	if len(pairs) == 0 {
		return nil, nil
	}
	r, err := e.query()
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(pairs))
	for i, p := range pairs {
		out[i] = r.rep[p.U] == r.rep[p.V]
	}
	return out, nil
}

// candidate is one sampled cut edge: the live root it was sampled for and
// the edge its sketch isolated.
type candidate struct {
	root uint32
	edge stream.Edge
}

// What a node adds to its supernode's round aggregates under a delta
// query's plan (querySession.plan). prev(v) below is node v's sketch as the
// cached result observed it: its before-image if v is dirty, its live
// sketch if not. A clean node whose component's previous aggregate is
// already accounted for — as the zero sketch of an intact component, or
// through the other pieces' prev terms of a cut one — has no role: it
// contributes nothing and is left out of the plan, which is what makes the
// delta's sketch work scale with the dirty set rather than the component
// size.
const (
	// roleCur: a member of a component re-solved from singletons;
	// contributes its live sketch (the from-scratch materialization).
	roleCur = uint8(iota)
	// roleDiff: a dirty member of an intact component, or of a cut
	// component's anchor piece; contributes its live sketch XOR its
	// before-image — the diff of its state since the cached result.
	roleDiff
	// rolePiece: a member of a cut component's other pieces. It
	// contributes its live sketch to its own root and prev(v) to the root
	// of its component's anchor piece (planned.anchor), which folds into
	// the diff — nothing at all for a clean node — once the two roots have
	// merged.
	rolePiece
)

// planned is one node of a delta query's plan: its role, and for a
// rolePiece node the node its component's star is centred on, which the
// piece search always leaves in the anchor piece.
type planned struct {
	node, anchor uint32
	role         uint8
}

// Sources of one contribution: the node's live round-r sketch, the round-r
// bytes of its before-image, or both (their XOR, the node's diff).
const (
	srcLive = uint8(1) << iota
	srcImage
)

// contribution is one term of a live root's round aggregate.
type contribution struct {
	node uint32
	slot int32 // index into querySession.roots
	src  uint8
}

// heldAggregate is one supernode aggregate in the arena: the root it was
// summed for, its arena node, and how many nodes' sketches are in it.
type heldAggregate struct {
	root    uint32
	slot    int32
	members int32
}

// sampleOut is what one sampling worker found in its range of live roots;
// giantAt is where among its candidates the giant's turn came, or -1.
type sampleOut struct {
	cands   []candidate
	emptied []uint32
	giantAt int
	err     error
}

// querySession is the scratch of lazy Boruvka. The caller holds the
// quiesce write lock with the workers idle, so shard state may be read
// freely (and concurrently) for the duration; the engine keeps one session
// and resets it for every query (Engine.session), so a query allocates
// its result and nothing else.
type querySession struct {
	d        *dsu.DSU
	rep      []uint32 // node -> current root, refreshed each round for the nodes it lists
	finished []bool   // root-indexed: component certified complete
	slot     []int32  // root -> index into roots this round, -1 otherwise
	roots    []uint32 // live roots this round, in deterministic order
	// contribs lists this round's contributions in ascending node order —
	// the order the device scan reads them in. starts/order are the same
	// list grouped by root (ramStore: contributions of roots[i] are
	// order[starts[i]:starts[i+1]]), and arenaSlot is the store's root ->
	// arena node map, parallel to roots; -1 marks a root ramStore samples
	// in place from its one member's slab sketch.
	contribs  []contribution
	starts    []int
	fill      []int // groupByRoot's per-root cursor
	order     []contribution
	arenaSlot []int32
	// A from-scratch round counts each live root's members (parallel to
	// roots; liveMembers is their sum) and complements the dominant one:
	// giant is the index in roots of the root that holds more members than
	// all the others together, whose members are left out of contribs and
	// whose aggregate is the XOR of the others' (dominant), or -1.
	members     []int32
	liveMembers int
	giant       int

	// The round's samples (sampleRound): one out per sampling worker, then
	// their candidates and emptied roots in live-root order. forest
	// collects the query's edges; the result takes a copy.
	outs     []sampleOut
	giantOut sampleOut
	cands    []candidate
	emptied  []uint32
	forest   []stream.Edge

	// In deviceStore, what the engine's arena holds: the aggregates of rounds
	// [arenaRound, arenaEnd), one per held entry. A from-scratch scan looks
	// ahead (arenaEnd > arenaRound+1) and the rounds in between fold held
	// along the unions instead of scanning again (foldHeld).
	arenaRound, arenaEnd int
	held, heldNext       []heldAggregate
	// The first-round pass's stacks (gather): stack[r] is the index in held
	// of root r's stack, -1 when r has none — all -1 between passes — and
	// free lists the held entries whose stack merged into another's, to be
	// reused.
	stack []int32
	free  []int32

	// The delta query's plan (runDeltaBoruvka): the nodes that contribute
	// anything, ascending, and the images behind srcImage. Without delta
	// every live node contributes its live sketch (a from-scratch query).
	delta  bool
	plan   []planned
	before map[uint32][]byte
	// The delta's working sets. dirty lists the nodes changed since the
	// cached result (ascending), affected the cached representatives of
	// the components they dirty, removed the cut components' removed
	// forest edges, and moved the nodes to split out of their cached
	// stars, each set of them ending at an offset in splits. isDirty
	// (node-indexed), class and relabel (indexed by cached representative)
	// and mark (node-indexed) are kept all-false, all classClean, the
	// identity and all-zero between queries: a delta query sets entries
	// only for what it touches and undoDelta puts them back. relabel[r] is
	// the node the DSU centres component r's star on, then the root the
	// star ends under; mark[v] is 1 + the id of the search that visited v,
	// or splitMark once v is to be split out.
	dirty    []uint32
	affected []uint32
	removed  []stream.Edge
	moved    []uint32
	splits   []int
	isDirty  []bool
	class    []uint8
	relabel  []uint32
	mark     []int32
	// The piece search (cutPieces): the cached forest's adjacency lists —
	// node v's neighbours are adj[adjStart[v]:adjStart[v+1]] — and one
	// breadth-first search per start. Searches that meet join one group
	// (group, a union-find over search ids), whose root search alone has
	// nodes left to expand; every visited node sits in exactly one
	// search's queue.
	adjStart []int32
	adj      []uint32
	searches []pieceSearch
	group    []int32

	// What the query cost, by count, which tests pin: the longest
	// contribution list of any round (its sketch work per round), the DSU
	// operations (Find, Union, and one per element Split moves), the nodes
	// the piece search expanded, and the live roots of each round.
	maxContribs int
	dsuOps      int
	visits      int
	liveRoots   []int
}

// pieceSearch is one breadth-first search over the cached forest: queue
// holds every node it visited, in visit order, and head the next to
// expand.
type pieceSearch struct {
	queue []uint32
	head  int
}

// find is the session's counted DSU Find.
func (q *querySession) find(v uint32) uint32 {
	q.dsuOps++
	return q.d.Find(v)
}

// prepareRound resets the slots the previous round set, lists this round's
// live roots in deterministic order (roots, slot), refreshing rep for the
// nodes it lists, and lists the round's contributions. A delta query lists
// its plan and the plan's anchors; a from-scratch query every node. It
// returns the number of live (unfinished) components. Single-threaded: DSU
// path compression is not safe for concurrent Finds.
func (q *querySession) prepareRound(round int) int {
	for _, r := range q.roots {
		q.slot[r] = -1
	}
	q.roots = q.roots[:0]
	q.contribs = q.contribs[:0]
	q.giant = -1
	first := round == 0
	if q.delta {
		for _, p := range q.plan {
			q.listRoot(p.node, first)
			if p.role == rolePiece {
				q.listRoot(p.anchor, first)
			}
		}
		for _, p := range q.plan {
			q.contribute(p)
		}
	} else {
		for i := range q.rep {
			q.listRoot(uint32(i), first)
		}
		q.members, q.liveMembers = sized(q.members, len(q.roots)), 0
		for _, r := range q.rep {
			if s := q.slot[r]; s >= 0 {
				q.members[s]++
				q.liveMembers++
			}
		}
		if !first {
			q.giant = q.dominant()
		}
		for i, r := range q.rep {
			if s := q.slot[r]; s >= 0 && int(s) != q.giant {
				q.contribs = append(q.contribs, contribution{uint32(i), s, srcLive})
			}
		}
	}
	if len(q.contribs) > q.maxContribs {
		q.maxContribs = len(q.contribs)
	}
	q.liveRoots = append(q.liveRoots, len(q.roots))
	return len(q.roots)
}

// dominant returns the index in roots of a from-scratch round's giant: the
// live root with more members than all the others together, or -1 when
// there is none. Its aggregate need not be summed from its members. Every
// edge toggles both of its endpoints, so the XOR of every node's round-r
// sketch is zero; a component certified complete has a zero cut, so its
// aggregate is zero too; hence the live roots' aggregates XOR to zero, and
// any one of them is the XOR of the others. It is the argument the delta
// query's cut class makes for its anchor piece, over the whole partition.
// Round 0's roots are singletons, so it has no giant but on a one-node
// graph, and is never asked.
func (q *querySession) dominant() int {
	big := 0
	for i, m := range q.members {
		if m > q.members[big] {
			big = i
		}
	}
	if len(q.members) > 0 && 2*int(q.members[big]) > q.liveMembers {
		return big
	}
	return -1
}

// listRoot refreshes v's root and lists it as live unless it is listed
// already or certified complete. A query's first round lists every root
// the query can reach — every node from scratch; for a delta, the plan's
// components, the only ones a candidate edge can join — so it clears
// their finished flags, whatever an earlier query left there.
func (q *querySession) listRoot(v uint32, first bool) {
	r := q.find(v)
	q.rep[v] = r
	if first {
		q.finished[r] = false
	}
	if !q.finished[r] && q.slot[r] < 0 {
		q.slot[r] = int32(len(q.roots))
		q.roots = append(q.roots, r)
	}
}

// contribute appends a node's terms for this round, each only while the
// root it feeds is live.
func (q *querySession) contribute(p planned) {
	v := p.node
	s := q.slot[q.rep[v]]
	switch p.role {
	case roleCur:
		if s >= 0 {
			q.contribs = append(q.contribs, contribution{v, s, srcLive})
		}
	case roleDiff:
		if s >= 0 {
			q.contribs = append(q.contribs, contribution{v, s, srcLive | srcImage})
		}
	case rolePiece:
		prev := srcLive
		if q.before[v] != nil {
			prev = srcImage
		}
		a := q.slot[q.rep[p.anchor]]
		if s == a {
			// Merged with the anchor piece: cur(v) and prev(v) meet in one
			// aggregate and cancel unless v is dirty.
			if s >= 0 && prev == srcImage {
				q.contribs = append(q.contribs, contribution{v, s, srcLive | srcImage})
			}
			return
		}
		if s >= 0 {
			q.contribs = append(q.contribs, contribution{v, s, srcLive})
		}
		if a >= 0 {
			q.contribs = append(q.contribs, contribution{v, a, prev})
		}
	}
}

// groupByRoot counting-sorts contribs by root into order/starts, keeping
// node order within a root.
func (q *querySession) groupByRoot() {
	nr := len(q.roots)
	q.starts = sized(q.starts, nr+1)
	for _, c := range q.contribs {
		q.starts[c.slot+1]++
	}
	for i := 1; i <= nr; i++ {
		q.starts[i] += q.starts[i-1]
	}
	q.order = sized(q.order, len(q.contribs))
	q.fill = append(q.fill[:0], q.starts[:nr]...)
	for _, c := range q.contribs {
		q.order[q.fill[c.slot]] = c
		q.fill[c.slot]++
	}
}

// sized returns s re-formed as n zero elements, reusing its array when it
// is large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// newQuerySession allocates the scratch of an n-node session: singletons,
// nothing finished or listed, and the delta's arrays all clear.
func newQuerySession(n int) *querySession {
	q := &querySession{
		d:        dsu.New(n),
		rep:      make([]uint32, n),
		finished: make([]bool, n),
		slot:     make([]int32, n),
		giant:    -1,
		stack:    make([]int32, n),
		isDirty:  make([]bool, n),
		class:    make([]uint8, n),
		relabel:  make([]uint32, n),
		mark:     make([]int32, n),
	}
	for i := range q.slot {
		q.slot[i], q.stack[i] = -1, -1
		q.relabel[i] = uint32(i)
	}
	return q
}

// reset clears what the last query left of a session — no plan, no held
// aggregates, no forest, no counts — keeping every array for the next
// query. The DSU is left as it is: each path starts it itself, from
// singletons (runBoruvka) or from the cached partition (runDeltaBoruvka),
// and the first round clears the finished flag of every root it lists.
func (q *querySession) reset() {
	q.delta, q.plan, q.before = false, q.plan[:0], nil
	q.held, q.arenaRound, q.arenaEnd, q.giant = q.held[:0], 0, 0, -1
	q.forest = q.forest[:0]
	q.maxContribs, q.dsuOps, q.visits, q.liveRoots = 0, 0, 0, q.liveRoots[:0]
}

// result packages a from-scratch session's answer as a query result tagged
// with epoch: the final representatives off the DSU, the component count
// and a copy of the forest — the only allocations of a query.
func (q *querySession) result(epoch uint64) *queryResult {
	n := len(q.rep)
	rep := make([]uint32, n)
	count := 0
	for i := 0; i < n; i++ {
		rep[i] = q.d.Find(uint32(i))
		if rep[i] == uint32(i) {
			count++
		}
	}
	return &queryResult{
		epoch: epoch, delta: q.delta,
		forest: slices.Clone(q.forest), rep: rep, count: count,
	}
}

// deltaResult packages a delta session's answer off prev: a copy of prev's
// representatives relabelled — an affected component's label to the root
// its star ended under, a node split out of its cached star to its own
// root — the DSU's count and a copy of the forest.
func (q *querySession) deltaResult(epoch uint64, prev *queryResult) *queryResult {
	for _, r := range q.affected {
		q.relabel[r] = q.find(q.relabel[r])
	}
	rep := make([]uint32, len(prev.rep))
	for i, r := range prev.rep {
		rep[i] = q.relabel[r]
	}
	for _, v := range q.moved {
		rep[v] = q.find(v)
	}
	return &queryResult{
		epoch: epoch, delta: true,
		forest: slices.Clone(q.forest), rep: rep, count: q.d.Count(),
	}
}

// boruvkaRounds runs the lazy Boruvka rounds over q's current state —
// pristine singletons for a full query, the cached partition with its
// affected components split back for a delta query — until every
// component certifies complete or the sketch depth runs out, appending
// recovered edges to q.forest. It returns the number of still-live
// components (zero on success) and the rounds executed.
func (e *Engine) boruvkaRounds(q *querySession) (live, rounds int, err error) {
	for round := 0; round < e.cfg.Rounds; round++ {
		var ran bool
		if live, ran, err = e.boruvkaRound(q, round); err != nil || !ran {
			break
		}
		rounds++
	}
	return live, rounds, err
}

// boruvkaRound runs one round: it samples a cut edge per live component and
// merges along the edges found. ran is false, with nothing done, when no
// component was live; live is the count left after the round.
func (e *Engine) boruvkaRound(q *querySession, round int) (live int, ran bool, err error) {
	if live = q.prepareRound(round); live == 0 {
		return 0, false, nil
	}
	if round == 0 && !q.delta {
		// Out of core the store samples and unions round 0 in the pass that
		// gathers the rounds after it (deviceStore.firstRound).
		left, done, err := e.sketches.firstRound(q, live)
		if err != nil || done {
			return left, true, err
		}
	}
	if err := e.sampleRound(q, round); err != nil {
		return live, true, err
	}
	for _, r := range q.emptied {
		q.finished[r] = true
		live--
	}
	// Union phase: candidates arrive in deterministic live-root order,
	// so merge order — and therefore the recovered forest — is
	// reproducible across runs and worker counts.
	for _, c := range q.cands {
		if _, _, ok := q.join(c.edge); ok {
			live--
		}
	}
	return live, true, nil
}

// join unions the components of a candidate edge's endpoints and records
// the edge in the forest, unless another merge this round already
// connected them. It returns the merged root and the root it absorbed.
func (q *querySession) join(eg stream.Edge) (root, absorbed uint32, ok bool) {
	ra, rb := q.find(eg.U), q.find(eg.V)
	if ra == rb {
		return ra, ra, false
	}
	root, _ = q.d.Union(ra, rb)
	q.dsuOps++
	// The merged component has a fresh cut; with high probability neither
	// constituent was finished (a finished component has no cut edges to
	// be sampled), but never let a stale flag silence the new component.
	q.finished[root] = false
	q.forest = append(q.forest, eg)
	if absorbed = ra; root == ra {
		absorbed = rb
	}
	return root, absorbed, true
}

// runBoruvka executes the from-scratch lazy Boruvka rounds on the reset
// session q, from singletons, and returns the full query result tagged with
// epoch. On ErrQueryFailed the partial result is still returned.
func (e *Engine) runBoruvka(q *querySession, epoch uint64) (*queryResult, error) {
	q.d.Reset()
	live, rounds, err := e.boruvkaRounds(q)
	if err != nil {
		return nil, err
	}
	e.lastRounds.Store(int64(rounds))
	res := q.result(epoch)
	if live > 0 {
		// Rounds exhausted with uncertified components left: the forest
		// may be incomplete and fresh sketches do not exist to extend it.
		return res, ErrQueryFailed
	}
	return res, nil
}

// Classes of a component of the cached partition under a delta query.
const (
	classClean      = iota // no dirty member: its star carries over untouched
	classIntact            // re-certified from its dirty members' diffs
	classCut               // possibly-deleted forest edges removed, pieces kept
	classSingletons        // a dirty member has no image: re-solved from scratch
	numDeltaClasses
)

// splitMark marks a node split out of its cached star (cutPieces,
// splitSingletons) until undoDelta clears it.
const splitMark = -1

// runDeltaBoruvka answers a query incrementally off the previous cached
// result. A component of prev's partition containing no dirty node is
// clean: every edge toggle since prev landed batches on both endpoints'
// sketches, so a clean component had no incident toggle — its forest
// edges are still genuine and its (empty) cut is unchanged. The DSU starts
// as prev's partition, one star per component on its cached
// representative (dsu.Seed), and a clean star is never listed, so never
// touched again. No candidate edge can cross from an affected component
// into a clean one (such an edge either existed at prev time, putting both
// sides in one prev component, or was toggled since, dirtying both
// endpoints), so the carried-over partition is never disturbed.
//
// An affected component falls in one of three classes, the same in RAM and
// out of core. Everything rests on one fact: a cached component's round
// aggregates were the ZERO sketch (its cut was certified empty), so with
// prev(v) the sketch the cached result observed — v's before-image if
// dirty, its live sketch if not — the XOR of prev(v) over the component is
// zero in every round.
//
// Intact: no forest edge has both endpoints dirty, so none can have been
// deleted (a deletion dirties exactly its two endpoints) and the forest
// still spans the component. It stays one star, and its current round-r
// aggregate is the XOR of its dirty members' current-⊕-before diffs:
// toggles internal to the component enter two members' diffs and cancel, a
// toggle crossing its boundary enters one and survives, so the diffs alone
// ARE its current cut — O(dirty members) sketch work.
//
// Cut: some forest edges have both endpoints dirty and may be gone. Only
// those are removed; every other forest edge has a clean endpoint, cannot
// have been toggled, and keeps its sub-tree (a piece) together. The
// pieces' prev aggregates XOR to zero, so any one piece's — the anchor's —
// is the XOR of prev(v) over all the OTHER pieces' members: those members
// contribute cur(v) to their own root and prev(v) to the anchor's, whose
// own dirty members add their diffs. cutPieces finds the pieces by
// searching the cached forest outward from the removed edges' endpoints in
// lockstep, never crossing a removed edge, and stops when one search is
// left: that unfinished piece is the anchor and stays in the star, the
// enumerated ones are split out. Work is O(dirty + the enumerated pieces'
// members) — detaching a leaf from a giant component touches the leaf and
// the dirty nodes, never the giant's members.
//
// From singletons: a dirty member has no before-image (the baseline refused
// it, past its image limit or the capture's budget), so prev is unknown
// for it. Every member is split out of the
// star and the component re-solves with full member materialization.
//
// Merges go by size, so the larger side keeps its representative, and the
// result relabels a copy of prev's representatives (deltaResult). What is
// left linear in the node count is plain array work: the stamp scan that
// found the dirty set, one pass over the cached forest, the seed, the
// relabelled copy, the forest's copy and — only when a component is cut or
// re-solved from singletons — one counting sort of the cached forest into
// adjacency lists. No DSU operation and no round touches every node.
//
// ok=false (with no error) means the affected components failed to
// certify within the sketch depth; the caller falls back to the
// from-scratch run rather than surfacing a partial delta, keeping the
// result contract identical to a full query.
func (e *Engine) runDeltaBoruvka(q *querySession, epoch uint64, prev *queryResult) (res *queryResult, ok bool, err error) {
	// Workers are idle under the write lock: the image map and the stamps
	// are stable.
	q.delta, q.before = true, e.capture.base
	defer q.undoDelta()
	for _, v := range q.dirty {
		q.isDirty[v] = true
		r := prev.rep[v]
		if q.class[r] == classClean {
			q.class[r] = classIntact
			q.affected = append(q.affected, r)
		}
		if q.before[v] == nil {
			q.class[r] = classSingletons
		}
	}
	// Clean and intact components keep their whole tree, a cut one the
	// sub-trees between its removed edges, one from singletons nothing.
	for _, eg := range prev.forest {
		switch r := prev.rep[eg.U]; {
		case q.class[r] == classSingletons:
		case q.isDirty[eg.U] && q.isDirty[eg.V]:
			q.class[r] = classCut
			q.removed = append(q.removed, eg)
		default:
			q.forest = append(q.forest, eg)
		}
	}
	var classCount [numDeltaClasses]uint64
	classCount[classClean] = uint64(prev.count - len(q.affected))
	search := false
	for _, r := range q.affected {
		classCount[q.class[r]]++
		search = search || q.class[r] != classIntact
	}
	for c, k := range classCount {
		e.deltaClasses[c].Add(k)
	}

	if search {
		q.buildAdjacency(prev.forest)
		// One piece search per cut component, over its removed edges.
		slices.SortStableFunc(q.removed, func(a, b stream.Edge) int {
			return cmp.Compare(prev.rep[a.U], prev.rep[b.U])
		})
		for rs := q.removed; len(rs) > 0; {
			r, k := prev.rep[rs[0].U], 1
			for k < len(rs) && prev.rep[rs[k].U] == r {
				k++
			}
			q.cutPieces(r, rs[:k])
			rs = rs[k:]
		}
		for _, r := range q.affected {
			if q.class[r] == classSingletons {
				q.splitSingletons(r)
			}
		}
	}
	q.d.Seed(prev.rep, q.relabel)
	start := 0
	for _, end := range q.splits {
		q.d.Split(q.moved[start:end])
		q.dsuOps += end - start
		start = end
	}
	for _, v := range q.dirty {
		// Intact, or the anchor piece of a cut.
		if c := q.class[prev.rep[v]]; c == classIntact || c == classCut && q.mark[v] != splitMark {
			q.plan = append(q.plan, planned{node: v, role: roleDiff})
		}
	}
	slices.SortFunc(q.plan, func(a, b planned) int { return cmp.Compare(a.node, b.node) })

	live, rounds, err := e.boruvkaRounds(q)
	if err != nil {
		return nil, false, err
	}
	if live > 0 {
		return nil, false, nil
	}
	res = q.deltaResult(epoch, prev)
	e.lastRounds.Store(int64(rounds))
	e.lastDeltaContribs.Store(int64(q.maxContribs))
	e.lastDeltaOps.Store(int64(q.dsuOps))
	e.lastDeltaVisits.Store(int64(q.visits))
	return res, true, nil
}

// undoDelta puts back the entries of the node- and label-indexed arrays
// that the delta query set, so the next one finds them clear without a
// pass over every node.
func (q *querySession) undoDelta() {
	for _, v := range q.dirty {
		q.isDirty[v] = false
	}
	for _, r := range q.affected {
		q.class[r], q.relabel[r] = classClean, r
	}
	for i := range q.searches {
		for _, v := range q.searches[i].queue {
			q.mark[v] = 0
		}
	}
	q.affected, q.removed, q.moved, q.splits = q.affected[:0], q.removed[:0], q.moved[:0], q.splits[:0]
	q.searches, q.group = q.searches[:0], q.group[:0]
}

// buildAdjacency lays forest out as adjacency lists, in forest order, by
// one counting sort.
func (q *querySession) buildAdjacency(forest []stream.Edge) {
	n := len(q.rep)
	// Degrees go in at v+2, so that after the prefix sum adjStart[v+1]
	// is v's first entry, the cursor the fill advances to v+1's.
	q.adjStart = sized(q.adjStart, n+2)
	for _, eg := range forest {
		q.adjStart[eg.U+2]++
		q.adjStart[eg.V+2]++
	}
	for i := 2; i < n+2; i++ {
		q.adjStart[i] += q.adjStart[i-1]
	}
	if m := 2 * len(forest); cap(q.adj) < m {
		q.adj = make([]uint32, m)
	} else {
		q.adj = q.adj[:m]
	}
	for _, eg := range forest {
		q.adj[q.adjStart[eg.U+1]] = eg.V
		q.adjStart[eg.U+1]++
		q.adj[q.adjStart[eg.V+1]] = eg.U
		q.adjStart[eg.V+1]++
	}
}

// neighbours returns v's neighbours in the cached forest.
func (q *querySession) neighbours(v uint32) []uint32 {
	return q.adj[q.adjStart[v]:q.adjStart[v+1]]
}

// newSearch starts a search at v, in a group of its own, and returns its
// id.
func (q *querySession) newSearch(v uint32) int {
	i := len(q.searches)
	if i < cap(q.searches) {
		q.searches = q.searches[:i+1]
	} else {
		q.searches = append(q.searches, pieceSearch{})
	}
	s := &q.searches[i]
	s.queue, s.head = append(s.queue[:0], v), 0
	q.mark[v] = int32(i) + 1
	q.group = append(q.group, int32(i))
	return i
}

// groupOf returns the group search i belongs to.
func (q *querySession) groupOf(i int32) int32 {
	for q.group[i] != i {
		q.group[i] = q.group[q.group[i]]
		i = q.group[i]
	}
	return i
}

// expand expands search i's next node, never across a removed edge, and
// returns by how much the count of unfinished groups fell. An unvisited
// neighbour joins i's queue. A neighbour another group visited joins that
// group to i's — they search one piece — and i takes over the other
// root's unexpanded nodes, so a group expands one node a turn however
// many searches it joined: the pieces finish in order of size. That group
// is unfinished (a finished group has enumerated its piece, which nothing
// outside it reaches), so the count falls by one per group joined, or by
// one when i has nothing left to expand. A search with nothing left does
// nothing.
func (q *querySession) expand(i int) (fell int) {
	s := &q.searches[i]
	if s.head == len(s.queue) {
		return 0
	}
	v := s.queue[s.head]
	s.head++
	q.visits++
	for _, w := range q.neighbours(v) {
		if q.isDirty[v] && q.isDirty[w] {
			continue // a removed edge
		}
		if m := q.mark[w]; m == 0 {
			q.mark[w] = int32(i) + 1
			s.queue = append(s.queue, w)
		} else if h := q.groupOf(m - 1); h != int32(i) {
			t := &q.searches[h]
			s.queue = append(s.queue, t.queue[t.head:]...)
			t.queue = t.queue[:t.head]
			q.group[h] = int32(i)
			fell++
		}
	}
	if s.head == len(s.queue) {
		fell++
	}
	return fell
}

// cutPieces finds the pieces of cut component r. One search starts at each
// endpoint of its removed edges, and the groups expand a node each in
// turn, joining when they meet, until one group is left unfinished: every
// piece holds a removed edge's endpoint, so every other piece has then
// been enumerated whole. The unfinished piece — the giant side of a
// detach — is the anchor and stays in r's star; each enumerated piece is
// queued to be split out into a set of its own, its members planned as
// rolePiece. Any piece is a correct anchor by linearity. When r itself lies
// in an enumerated piece, the star is centred on the anchor's first
// search start instead (relabel), so r can leave it like any other member.
func (q *querySession) cutPieces(r uint32, removed []stream.Edge) {
	first := len(q.searches)
	for _, eg := range removed {
		for _, v := range [2]uint32{eg.U, eg.V} {
			if q.mark[v] == 0 {
				q.newSearch(v)
			}
		}
	}
	end := len(q.searches)
	for unfinished := end - first; unfinished > 1; {
		for i := first; i < end && unfinished > 1; i++ {
			unfinished -= q.expand(i)
		}
	}
	anchor := int32(-1)
	for i := first; i < end; i++ {
		if s := &q.searches[i]; s.head < len(s.queue) {
			anchor = int32(i)
		}
	}
	if m := q.mark[r]; m != 0 && q.groupOf(m-1) != anchor {
		q.relabel[r] = q.searches[anchor].queue[0]
	}
	for g := int32(first); g < int32(end); g++ {
		if g == anchor || q.groupOf(g) != g {
			continue
		}
		start := len(q.moved)
		for i := first; i < end; i++ {
			if q.groupOf(int32(i)) == g {
				q.moved = append(q.moved, q.searches[i].queue...)
			}
		}
		for _, v := range q.moved[start:] {
			q.mark[v] = splitMark
			q.plan = append(q.plan, planned{node: v, anchor: q.relabel[r], role: rolePiece})
		}
		q.splits = append(q.splits, len(q.moved))
	}
}

// splitSingletons queues component r of the from-singletons class to be
// split back into singletons and plans every member's live sketch. Its
// members are found by a search from r over its whole cached tree: a
// re-solve from singletons costs the component's size whatever the plan.
func (q *querySession) splitSingletons(r uint32) {
	s := &q.searches[q.newSearch(r)]
	for ; s.head < len(s.queue); s.head++ {
		q.visits++
		for _, w := range q.neighbours(s.queue[s.head]) {
			if q.mark[w] == 0 {
				q.mark[w] = splitMark
				s.queue = append(s.queue, w)
			}
		}
	}
	for j, v := range s.queue {
		if j > 0 {
			q.moved = append(q.moved, v)
			q.splits = append(q.splits, len(q.moved))
		}
		q.plan = append(q.plan, planned{node: v, role: roleCur})
	}
}

// sampleRound materializes the round-r supernode sketch of every live root
// from the round's contribution list and samples one candidate cut edge
// from each (Boruvka phase 1), into q.cands in live-root order, with
// q.emptied listing the roots whose cut sketch was empty (complete
// components).
//
// The supernode sketches that have to be summed live in the engine's one
// arena, re-formed per round (queries hold the quiesce write lock, so one
// serves them all): mergeable with the stored sketches by construction
// (same vector length, columns, and round seeds). Each store sums them its
// own way, and each way wins on some workload. In RAM the sampling
// workers sum their roots out of the slabs, and a root that is one live
// sketch is sampled in place. Out of core the rounds after round 0 were
// gathered by round 0's pass and fold along the unions in RAM; a round the
// folded aggregates do not reach reads the device in one pass in node
// order, looking ahead as many rounds as the arena holds, before the
// workers only sample. Either way a from-scratch round's giant is the XOR
// of the other live roots' aggregates (dominant), so it is sampled after
// them, and its candidate takes its root's turn in the order.
func (e *Engine) sampleRound(q *querySession, round int) error {
	if err := e.sketches.sumRound(q, round); err != nil {
		return err
	}
	nr := len(q.roots)
	// Workers own contiguous root ranges; the last runs on this goroutine.
	workers := min(len(e.shards), nr)
	chunk := (nr + workers - 1) / workers
	for len(q.outs) < workers {
		q.outs = append(q.outs, sampleOut{})
	}
	outs := q.outs[:workers]
	var wg sync.WaitGroup
	for w := range outs {
		out := &outs[w]
		out.cands, out.emptied, out.giantAt, out.err = out.cands[:0], out.emptied[:0], -1, nil
		lo, hi := w*chunk, min((w+1)*chunk, nr)
		if w == workers-1 {
			e.sampleRoots(q, round, lo, hi, out)
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.sampleRoots(q, round, lo, hi, out)
		}()
	}
	wg.Wait()
	for i := range outs {
		if outs[i].err != nil {
			return fmt.Errorf("core: merging supernodes: %w", outs[i].err)
		}
	}
	g := &q.giantOut
	g.cands, g.emptied = g.cands[:0], g.emptied[:0]
	if q.giant >= 0 {
		var acc cubesketch.Sketch
		if err := e.sketches.rootSketch(q, q.giant, round, &acc); err != nil {
			return fmt.Errorf("core: merging supernodes: %w", err)
		}
		e.sampleRoot(q, q.giant, &acc, g)
	}
	// Concatenating in worker order preserves the global deterministic
	// live-root order.
	q.cands, q.emptied = q.cands[:0], q.emptied[:0]
	for i := range outs {
		cands := outs[i].cands
		if at := outs[i].giantAt; at >= 0 {
			q.cands = append(q.cands, cands[:at]...)
			q.cands = append(q.cands, g.cands...)
			q.emptied = append(q.emptied, g.emptied...)
			cands = cands[at:]
		}
		q.cands = append(q.cands, cands...)
		q.emptied = append(q.emptied, outs[i].emptied...)
	}
	return nil
}

// sampleRoots is one sampling worker of sampleRound: for live roots
// [lo, hi) but the giant it has the store materialize each root's
// supernode sketch and queries it for a cut edge.
func (e *Engine) sampleRoots(q *querySession, round, lo, hi int, out *sampleOut) {
	var acc cubesketch.Sketch
	for i := lo; i < hi; i++ {
		if i == q.giant {
			out.giantAt = len(out.cands)
			continue
		}
		if err := e.sketches.rootSketch(q, i, round, &acc); err != nil {
			out.err = err
			return
		}
		e.sampleRoot(q, i, &acc, out)
	}
}

// sampleRoot queries live root i's supernode sketch acc for a cut edge. A
// candidate sampled from the giant's complement must leave it: it is an
// exact cut edge only while every certified component's cut is truly
// zero, so one with both endpoints on a side counts as a sketch failure,
// never a union.
func (e *Engine) sampleRoot(q *querySession, i int, acc *cubesketch.Sketch, out *sampleOut) {
	root := q.roots[i]
	edge, got := e.sample(acc)
	switch {
	case got == sampledEmpty:
		// No edge crosses this component's cut; it is complete and drops
		// out of every later round.
		out.emptied = append(out.emptied, root)
	case got == sampledEdge && (i != q.giant || (q.rep[edge.U] == root) != (q.rep[edge.V] == root)):
		out.cands = append(out.cands, candidate{root: root, edge: edge})
	case got == sampledEdge:
		e.sketchFailures.Add(1)
	}
}

// What querying a cut sketch found (Engine.sample).
const (
	sampledEdge = iota
	sampledEmpty
	sampledFailed
)

// sample queries a cut sketch: an edge leaving the component, an empty cut,
// or a failure — no bucket isolated one entry, or a checksum collision
// produced a non-edge index — which it counts in sketchFailures.
func (e *Engine) sample(acc *cubesketch.Sketch) (stream.Edge, int) {
	idx, err := acc.Query()
	switch {
	case err == nil:
		edge, ierr := stream.IndexEdge(uint64(e.cfg.NumNodes), idx)
		if ierr == nil {
			return edge, sampledEdge
		}
	case errors.Is(err, cubesketch.ErrEmpty):
		return stream.Edge{}, sampledEmpty
	}
	e.sketchFailures.Add(1)
	return stream.Edge{}, sampledFailed
}

// holdScanned records what a scan just left in the arena: one aggregate
// per live root, over its members. Only a look-ahead scan needs the record
// (a one-round arena is never folded), and only from-scratch queries look
// ahead, which count every live root's members (prepareRound).
func (q *querySession) holdScanned() {
	q.held = q.held[:0]
	if q.arenaEnd-q.arenaRound < 2 {
		return
	}
	for i, root := range q.roots {
		q.held = append(q.held, heldAggregate{root: root, slot: q.arenaSlot[i], members: q.members[i]})
	}
}

// foldHeld brings the arena's aggregates from the round they were scanned
// or gathered at up to this round's partition, in RAM: a live root's
// aggregate is the XOR of the held aggregates of the roots that merged
// into it, over the rounds still ahead (the one about to be sampled
// included); aggregates of components finished since drop out. It reports
// false, with arenaSlot unusable, when this round has to scan instead: the
// arena does not reach it, or some live root has a member no held
// aggregate covers — a component that was not live at the scan
// (boruvkaRound revives a finished root that a late edge unions into), or
// a node round 0's pass took for complete and gathered nothing of — its
// held parts then miss members, and an aggregate is exact or it is
// nothing. Held member sets are disjoint and each lies inside one current
// root, so they cover every live root exactly when they cover as many
// nodes as the live roots have.
func (q *querySession) foldHeld(arena *cubesketch.Slab, round int) (bool, error) {
	if round >= q.arenaEnd {
		return false, nil
	}
	depth, rest := round-q.arenaRound, q.arenaEnd-round
	q.heldNext = q.heldNext[:0]
	for _, root := range q.roots {
		q.heldNext = append(q.heldNext, heldAggregate{root: root, slot: -1})
	}
	covered := 0
	for _, h := range q.held {
		i := q.slot[q.rep[h.root]]
		if i < 0 {
			continue // part of a component since certified complete
		}
		into := &q.heldNext[i]
		if into.slot < 0 {
			into.slot = h.slot
		} else if err := arena.MergeRounds(int(into.slot), depth, arena, int(h.slot), depth, rest); err != nil {
			return false, err
		}
		into.members += h.members
		covered += int(h.members)
	}
	if covered != q.liveMembers {
		return false, nil
	}
	q.held, q.heldNext = q.heldNext, q.held
	q.arenaSlot = q.arenaSlot[:0]
	for _, h := range q.held {
		q.arenaSlot = append(q.arenaSlot, h.slot)
	}
	return true, nil
}

// beginGather re-forms the arena for round 0's pass (deviceStore.firstRound)
// to gather rounds [1, 1+k) of the n nodes' sketches into stacks, one per
// current root: n/k stacks, the budget of n single-round sketches that a
// round-0 arena takes anyway.
func (q *querySession) beginGather(arena *cubesketch.Slab, seeds []uint64, n, k int) {
	q.held, q.free = q.held[:0], q.free[:0]
	q.arenaRound, q.arenaEnd = 1, 1+k
	if k > 0 {
		arena.Reshape(n/k, seeds[1:1+k])
	}
}

// stackFor returns the arena stack gathering root r's members, opening one
// when r has none. When every stack is in use it first narrows them all by
// a round, keeping the rounds nearest round 1: n/k stacks grow to n/(k-1),
// and at one round the arena holds a stack per node.
func (q *querySession) stackFor(arena *cubesketch.Slab, r uint32, n int) int32 {
	if h := q.stack[r]; h >= 0 {
		return h
	}
	var h int32
	if f := len(q.free); f > 0 {
		h, q.free = q.free[f-1], q.free[:f-1]
	} else {
		for len(q.held) == arena.Nodes() {
			k := arena.Rounds() - 1
			arena.Narrow(n/k, k)
			q.arenaEnd = q.arenaRound + k
		}
		h = int32(len(q.held))
		q.held = append(q.held, heldAggregate{slot: h})
	}
	q.held[h].root, q.stack[r] = r, h
	return h
}

// mergeStacks follows a union of round 0's pass: the absorbed root's stack,
// if it has one, becomes the merged root's, or is XORed into it and freed
// (zeroed for reuse) when the merged root has one too.
func (q *querySession) mergeStacks(arena *cubesketch.Slab, root, absorbed uint32) error {
	ha := q.stack[absorbed]
	if ha < 0 {
		return nil
	}
	q.stack[absorbed] = -1
	hr := q.stack[root]
	if hr < 0 {
		q.stack[root], q.held[ha].root = ha, root
		return nil
	}
	if err := arena.MergeRounds(int(hr), 0, arena, int(ha), 0, arena.Rounds()); err != nil {
		return err
	}
	q.held[hr].members += q.held[ha].members
	q.held[ha].members = 0
	arena.ClearNode(int(ha))
	q.free = append(q.free, ha)
	return nil
}

// endGather keeps the pass's stacks that gathered a member as the held
// aggregates round 1 folds, and leaves stack all -1 again.
func (q *querySession) endGather() {
	kept := q.held[:0]
	for _, h := range q.held {
		q.stack[h.root] = -1
		if h.members > 0 {
			kept = append(kept, h)
		}
	}
	q.held = kept
}

// mergeImage XORs c.node's before-image, over the arena's rounds from round
// on, into its root's arena stack when the contribution asks for it.
func (q *querySession) mergeImage(arena *cubesketch.Slab, c contribution, round int) error {
	if c.src&srcImage == 0 {
		return nil
	}
	off := round * arena.SketchSize()
	return arena.MergeNodeBinary(int(q.arenaSlot[c.slot]), q.before[c.node][off:off+arena.NodeSize()])
}
