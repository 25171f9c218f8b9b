package core

import (
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
//     the sketch store sums it (sampleRound). Out of core, when every live
//     node contributes — a from-scratch query — that is the paper's
//     sequential scan (Lemma 5): O(liveBytes/B) blocks in a handful of ops,
//     never one point Read per node, looking as many rounds ahead as the
//     arena holds: a query reads the store about twice, not once per round.
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
//     components carry over wholesale. An affected component is
//     re-certified from the before-images the apply path captured at each
//     node's first change since that cut, in RAM and out of core alike, at
//     a cost set by the dirty set rather than the component
//     (runDeltaBoruvka has the three classes and the argument). Above
//     DeltaQueryMaxDirtyFrac dirty nodes the query falls back to the
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
		if float64(len(q.dirty)) <= e.cfg.DeltaQueryMaxDirtyFrac*float64(e.cfg.NumNodes) {
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
	// The before-images' baseline is superseded by res: the next first
	// dirtying of a node captures a fresh image relative to it.
	e.releaseBeforeLocked()
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
// through the small pieces' prev terms of a cut one — has no role: it
// contributes nothing and is left out of the plan, which is what makes the
// delta's sketch work scale with the dirty set rather than the component
// size.
const (
	// roleCur: a member of a component re-solved from singletons;
	// contributes its live sketch (the from-scratch materialization).
	roleCur = uint8(iota)
	// roleDiff: a dirty member of an intact component, or of a cut
	// component's largest piece; contributes its live sketch XOR its
	// before-image — the diff of its state since the cached result.
	roleDiff
	// rolePiece: a member of a cut component's smaller pieces. It
	// contributes its live sketch to its own root and prev(v) to the root
	// of its component's largest piece (planned.anchor), which folds into
	// the diff — nothing at all for a clean node — once the two roots have
	// merged.
	rolePiece
)

// planned is one node of a delta query's plan: its role, and for a
// rolePiece node a node of its component's largest piece.
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

// sampleOut is what one sampling worker found in its range of live roots.
type sampleOut struct {
	cands   []candidate
	emptied []uint32
	err     error
}

// querySession is the scratch of lazy Boruvka. The caller holds the
// quiesce write lock with the workers idle, so shard state may be read
// freely (and concurrently) for the duration; the engine keeps one session
// and resets it for every query (Engine.session), so a query allocates
// its result and nothing else.
type querySession struct {
	d        *dsu.DSU
	rep      []uint32 // node -> current root, rebuilt each round
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

	// The round's samples (sampleRound): one out per sampling worker, then
	// their candidates and emptied roots in live-root order. forest
	// collects the query's edges; the result takes a copy.
	outs    []sampleOut
	cands   []candidate
	emptied []uint32
	forest  []stream.Edge

	// In deviceStore, what the engine's arena holds: the aggregates of rounds
	// [arenaRound, arenaEnd), one per held entry. A from-scratch scan looks
	// ahead (arenaEnd > arenaRound+1) and the rounds in between fold held
	// along the unions instead of scanning again (foldHeld).
	arenaRound, arenaEnd int
	held, heldNext       []heldAggregate

	// The delta query's plan (runDeltaBoruvka): the nodes that contribute
	// anything, ascending, and the images behind srcImage. Without delta
	// every live node contributes its live sketch (a from-scratch query).
	// dirty, class, largest and pieceSize are its working sets: the nodes
	// changed since the cached result (ascending), the class of each cached
	// component, and each cut component's largest piece with the piece
	// sizes it was picked by.
	delta     bool
	plan      []planned
	before    map[uint32][]byte
	dirty     []uint32
	class     []uint8
	largest   []uint32
	pieceSize []int32
	// maxContribs is the longest contribution list of any round so far:
	// the query's sketch work per round, which tests pin by count.
	maxContribs int
}

// prepareRound refreshes rep from the DSU, rebuilds the live-root index
// (roots, slot) and lists the round's contributions. It returns the number
// of live (unfinished) components. Single-threaded: DSU path compression
// is not safe for concurrent Finds.
func (q *querySession) prepareRound() int {
	n := len(q.rep)
	q.roots = q.roots[:0]
	for i := range q.slot {
		q.slot[i] = -1
	}
	for i := 0; i < n; i++ {
		q.rep[i] = q.d.Find(uint32(i))
	}
	for i := 0; i < n; i++ {
		r := q.rep[i]
		if q.finished[r] || q.slot[r] >= 0 {
			continue
		}
		q.slot[r] = int32(len(q.roots))
		q.roots = append(q.roots, r)
	}
	q.contribs = q.contribs[:0]
	if q.delta {
		for _, p := range q.plan {
			q.contribute(p)
		}
	} else {
		for i := 0; i < n; i++ {
			q.contribute(planned{node: uint32(i), role: roleCur})
		}
	}
	if len(q.contribs) > q.maxContribs {
		q.maxContribs = len(q.contribs)
	}
	return len(q.roots)
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
			// Merged with the largest piece: cur(v) and prev(v) meet in one
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

// newQuerySession allocates the scratch of an n-node session.
func newQuerySession(n int) *querySession {
	return &querySession{
		d:        dsu.New(n),
		rep:      make([]uint32, n),
		finished: make([]bool, n),
		slot:     make([]int32, n),
	}
}

// reset returns the session to the state newQuerySession leaves it in —
// singletons, nothing finished, no plan, no held aggregates — keeping
// every array for the next query.
func (q *querySession) reset() {
	q.d.Reset()
	clear(q.finished)
	q.delta, q.plan, q.before = false, q.plan[:0], nil
	q.held, q.arenaRound, q.arenaEnd = q.held[:0], 0, 0
	q.forest = q.forest[:0]
	q.maxContribs = 0
}

// result packages the session's answer as a query result tagged with
// epoch: the final representatives off the DSU, the component count and a
// copy of the forest — the only allocations of a query.
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

// boruvkaRounds runs the lazy Boruvka rounds over q's current state —
// pristine singletons for a full query, the carried-over clean components
// pre-merged and pre-finished for a delta query — until every component
// certifies complete or the sketch depth runs out, appending recovered
// edges to q.forest. It returns the number of still-live components (zero
// on success) and the rounds executed.
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
	if live = q.prepareRound(); live == 0 {
		return 0, false, nil
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
		ra, rb := q.d.Find(c.edge.U), q.d.Find(c.edge.V)
		if ra == rb {
			// Another merge this round already connected them.
			continue
		}
		root, _ := q.d.Union(ra, rb)
		// The merged component has a fresh cut; with high probability
		// neither constituent was finished (a finished component has
		// no cut edges to be sampled), but never let a stale flag
		// silence the new component.
		q.finished[root] = false
		q.forest = append(q.forest, c.edge)
		live--
	}
	return live, true, nil
}

// runBoruvka executes the from-scratch lazy Boruvka rounds on the reset
// session q and returns the full query result tagged with epoch. On
// ErrQueryFailed the partial result is still returned.
func (e *Engine) runBoruvka(q *querySession, epoch uint64) (*queryResult, error) {
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
	classClean      = iota // no dirty member: carried over pre-finished
	classIntact            // re-certified from its dirty members' diffs
	classCut               // possibly-deleted forest edges removed, pieces kept
	classSingletons        // a dirty member has no image: re-solved from scratch
	numDeltaClasses
)

// runDeltaBoruvka answers a query incrementally off the previous cached
// result. A component of prev's partition containing no dirty node is
// clean: every edge toggle since prev landed batches on both endpoints'
// sketches, so a clean component had no incident toggle — its forest
// edges are still genuine and its (empty) cut is unchanged. Clean
// components carry over pre-merged and pre-finished. No candidate edge
// can cross from an affected component into a clean one (such an edge
// either existed at prev time, putting both sides in one prev component,
// or was toggled since, dirtying both endpoints), so the carried-over
// partition is never disturbed.
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
// still spans the component. It stays pre-merged, and its current round-r
// aggregate is the XOR of its dirty members' current-⊕-before diffs:
// toggles internal to the component enter two members' diffs and cancel, a
// toggle crossing its boundary enters one and survives, so the diffs alone
// ARE its current cut — O(dirty members) sketch work.
//
// Cut: some forest edges have both endpoints dirty and may be gone. Only
// those are removed; every other forest edge has a clean endpoint, cannot
// have been toggled, and keeps its sub-tree (a piece) pre-merged. The
// pieces' prev aggregates XOR to zero, so the largest piece's is the XOR
// of prev(v) over all the OTHER pieces' members: those members contribute
// cur(v) to their own root and prev(v) to the largest piece's, whose own
// dirty members add their diffs. Work is O(dirty + members of all pieces
// but the largest) — detaching a leaf from a giant component touches the
// leaf and the dirty nodes, never the giant's members.
//
// From singletons: a dirty member has no before-image (capture stopped at
// the limit), so prev is unknown for it. The component splits back to
// singletons and re-solves with full member materialization.
//
// ok=false (with no error) means the affected components failed to
// certify within the sketch depth; the caller falls back to the
// from-scratch run rather than surfacing a partial delta, keeping the
// result contract identical to a full query.
func (e *Engine) runDeltaBoruvka(q *querySession, epoch uint64, prev *queryResult) (res *queryResult, ok bool, err error) {
	n := int(e.cfg.NumNodes)
	// Workers are idle under the write lock: the image map and the stamps
	// are stable.
	before := e.before
	q.class = sized(q.class, n) // indexed by prev representative
	class := q.class
	for _, v := range q.dirty {
		r := prev.rep[v]
		if before[v] == nil {
			class[r] = classSingletons
		} else if class[r] == classClean {
			class[r] = classIntact
		}
	}
	isDirty := func(v uint32) bool { return e.stamp[v].Load() > prev.cut }
	bothDirty := func(eg stream.Edge) bool { return isDirty(eg.U) && isDirty(eg.V) }
	anyCut := false
	for _, eg := range prev.forest {
		if r := prev.rep[eg.U]; class[r] == classIntact && bothDirty(eg) {
			class[r] = classCut
			anyCut = true
		}
	}

	q.delta, q.before = true, before
	for _, eg := range prev.forest {
		// Clean and intact components keep their whole tree, a cut one the
		// sub-trees between its removed edges; all but the clean stay live,
		// to be re-certified (or extended) below.
		if c := class[prev.rep[eg.U]]; c == classSingletons || c == classCut && bothDirty(eg) {
			continue
		}
		q.d.Union(eg.U, eg.V)
		q.forest = append(q.forest, eg)
	}
	// largest[r] is the DSU root of cut component r's largest piece (n, of
	// size zero, until a piece is seen; the lowest-numbered wins a tie).
	var largest []uint32
	if anyCut {
		q.largest = sized(q.largest, n)
		q.pieceSize = sized(q.pieceSize, n+1) // piece root -> members
		largest = q.largest
		size := q.pieceSize
		for i := 0; i < n; i++ {
			largest[i] = uint32(n)
			if class[prev.rep[i]] == classCut {
				size[q.d.Find(uint32(i))]++
			}
		}
		for i := 0; i < n; i++ {
			if r := prev.rep[i]; class[r] == classCut {
				if p := q.d.Find(uint32(i)); size[p] > size[largest[r]] {
					largest[r] = p
				}
			}
		}
	}
	var classCount [numDeltaClasses]uint64
	for i := 0; i < n; i++ {
		v, r := uint32(i), prev.rep[i]
		if r == v {
			classCount[class[r]]++
		}
		switch c := class[r]; {
		case c == classClean:
			q.finished[q.d.Find(v)] = true
		case c == classSingletons:
			q.plan = append(q.plan, planned{node: v, role: roleCur})
		case c == classCut && q.d.Find(v) != largest[r]:
			q.plan = append(q.plan, planned{node: v, role: rolePiece, anchor: largest[r]})
		case isDirty(v): // intact, or the largest piece of a cut
			q.plan = append(q.plan, planned{node: v, role: roleDiff})
		}
	}
	for c, k := range classCount {
		e.deltaClasses[c].Add(k)
	}
	live, rounds, err := e.boruvkaRounds(q)
	if err != nil {
		return nil, false, err
	}
	if live > 0 {
		return nil, false, nil
	}
	e.lastRounds.Store(int64(rounds))
	e.lastDeltaContribs.Store(int64(q.maxContribs))
	return q.result(epoch), true, nil
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
// sketch is sampled in place. Out of core one pass in node order reads the
// device (scanning ahead as many rounds as the arena holds, folded along
// the unions in RAM afterwards) before the workers only sample.
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
		out.cands, out.emptied, out.err = out.cands[:0], out.emptied[:0], nil
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
	// Concatenating in worker order preserves the global deterministic
	// live-root order.
	q.cands, q.emptied = q.cands[:0], q.emptied[:0]
	for i := range outs {
		if outs[i].err != nil {
			return fmt.Errorf("core: merging supernodes: %w", outs[i].err)
		}
		q.cands = append(q.cands, outs[i].cands...)
		q.emptied = append(q.emptied, outs[i].emptied...)
	}
	return nil
}

// sampleRoots is one sampling worker of sampleRound: for live roots
// [lo, hi) it has the store materialize each root's supernode sketch and
// queries it for a cut edge.
func (e *Engine) sampleRoots(q *querySession, round, lo, hi int, out *sampleOut) {
	var acc cubesketch.Sketch
	for i := lo; i < hi; i++ {
		if err := e.sketches.rootSketch(q, i, round, &acc); err != nil {
			out.err = err
			return
		}
		root := q.roots[i]
		idx, qerr := acc.Query()
		switch {
		case qerr == nil:
			edge, ierr := stream.IndexEdge(uint64(e.cfg.NumNodes), idx)
			if ierr != nil {
				// A checksum collision produced a non-edge index;
				// treated as a sampling failure for this component.
				e.sketchFailures.Add(1)
				continue
			}
			out.cands = append(out.cands, candidate{root: root, edge: edge})
		case errors.Is(qerr, cubesketch.ErrEmpty):
			// No edge crosses this component's cut; it is complete
			// and drops out of every later round.
			out.emptied = append(out.emptied, root)
		case errors.Is(qerr, cubesketch.ErrFailed):
			e.sketchFailures.Add(1)
		}
	}
}

// holdScanned records what a scan just left in the arena: one aggregate
// per live root, over as many members as the root had live contributions.
// Only a look-ahead scan needs the record (a one-round arena is never
// folded), and only from-scratch queries look ahead, where a root's live
// contributions are exactly its members.
func (q *querySession) holdScanned() {
	q.held = q.held[:0]
	if q.arenaEnd-q.arenaRound < 2 {
		return
	}
	for i, root := range q.roots {
		q.held = append(q.held, heldAggregate{root: root, slot: q.arenaSlot[i]})
	}
	for _, c := range q.contribs {
		q.held[c.slot].members++
	}
}

// foldHeld brings the arena's aggregates from the round they were scanned
// at up to this round's partition, in RAM: a live root's aggregate is the
// XOR of the held aggregates of the roots that merged into it, over the
// rounds still ahead (the one about to be sampled included); aggregates of
// components finished since drop out. It reports false, with arenaSlot
// unusable, when this round has to scan instead: the arena does not reach
// it, or some live root absorbed a component that was not live at the scan
// (boruvkaRound revives a finished root that a late edge unions into) —
// its held parts then miss members, and an aggregate is exact or it is
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
	if covered != len(q.contribs) {
		return false, nil
	}
	q.held, q.heldNext = q.heldNext, q.held
	q.arenaSlot = q.arenaSlot[:0]
	for _, h := range q.held {
		q.arenaSlot = append(q.arenaSlot, h.slot)
	}
	return true, nil
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
