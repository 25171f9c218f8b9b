package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/dsu"
	"graphzeppelin/internal/gutter"
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
//     once, not once per round. The pass is the query's drain too: the
//     gutters' leftover batches apply to each group as the pass reaches
//     it, and only the slots they changed are written back, so the store
//     is read once and written once where the workers' drain would first
//     fault nearly every group through the cache (takeLeftover).
//
//  3. Ingest-epoch caching. The engine bumps an epoch counter on every
//     accepted update batch; a full query stores its result tagged with
//     the epoch it answered at. While the epoch is unchanged, Connected /
//     ConnectedMany / ConnectedComponents / SpanningForest are served
//     from the cached result — point queries cost O(1) between updates.
//
//  4. Incremental maintenance between epochs. When the cache is stale but
//     a previous result exists, the query reads the dirty set — every node
//     first changed since the cut that result took — off the capture's
//     baseline, which lists each such node at its first change (capture.go).
//     The gutters' leftover batches enter the baseline without reaching
//     the sketches: the query logs each one the capture logs, stamps its
//     node at the cut its result takes next (logLeftovers), applies those
//     of the nodes whose live bytes its plan reads (applyLeftovers), and
//     hands the rest to the workers after that cut, without waiting for
//     them (releaseLeftover); any other batch it applies on its own
//     goroutine first. A trickle's query thus pays for no cache fault or
//     stack apply of a node it reads the log of. A
//     component of the cached forest with no dirty member had no incident
//     edge toggled since that result — any toggle lands a batch on both
//     endpoints' sketches — so its forest edges are still genuine and its
//     cut is still empty: it carries over wholesale. The session keeps the
//     cached result's partition, as one DSU star per component, and its
//     forest with adjacency lists, so only the affected components are
//     split back, and re-certified from what the capture holds for each
//     dirty node since the cut — its log of applied indices, or, past the
//     log's cap or after a change of bytes, its image at the cut — in RAM
//     and out of core alike. Every dirty node holds one of the two: where
//     the capture cannot hold it, past its budget, the baseline overflows
//     and the query runs from scratch.
//     Sketch work and bookkeeping are both set by the dirty set rather than
//     the component or the graph: a cut component's pieces are found by
//     searching the kept forest outward from the removed edges, in
//     lockstep, until one search is left, so the giant side of a detach is
//     never enumerated; and each merge re-points the smaller side's
//     members. Beyond its sketch work, no step passes over all V nodes but
//     the copy that publishes the result, one memmove of the partition
//     and of the forest (runDeltaBoruvka has the classes and the
//     argument). Above deltaQueryMaxDirtyFrac dirty nodes, or once the
//     baseline has overflowed, the query falls back to the from-scratch
//     run; either way the caller sees an identical contract.

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
// was computed at. It is immutable once published: readers share it, so
// the public accessors copy anything they hand to callers that could
// mutate it.
type queryResult struct {
	epoch uint64
	// cut is the change-tracking cut taken when the result was cached: the
	// nodes stamped above it are exactly those changed since the sketch
	// state the result observed.
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
// Boruvka over a fresh snapshot otherwise. Under the quiesce write lock it
// drains by taking the gutters' leftover batches (takeLeftover), in both
// stores: a delta query logs them and applies only those its plan reads
// live (logLeftovers, applyLeftovers), a from-scratch one applies them in
// RAM through the workers and out of core in its pass over the store
// (firstRound), and whatever is left goes to the workers on the way out
// (releaseLeftover), after the result's cut. The returned result is shared
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
	q := e.session()
	// Whatever leftover batch the query does not apply itself — one a delta
	// query logged, or any on a cache hit or an error — goes to the
	// workers, as a plain drain's would. Deferred calls run last in first
	// out, so this one follows cacheResultLocked: the batches a delta query
	// logged reach the workers once the cut counting them is taken.
	defer e.releaseLeftover(q)
	if err := e.takeLeftover(); err != nil {
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
	res, err := e.runQueryLocked(q, epoch)
	if err != nil {
		return res, err
	}
	e.cacheResultLocked(res)
	return res, nil
}

// takeLeftover is a query's drain. It waits for the batches already
// queued, a previous delta query's logged ones among them, then flushes
// the gutters into the session (q.left, sorted by node) instead of
// queueing them for the workers. A delta query logs a trickle's handful
// and applies only those its plan reads live (logLeftovers): the rest
// reach the sketches through the workers after its cut, while no reader
// waits, where applying them here would fault their groups through the
// cache and toggle every round of their stacks inside the query. Out of
// core a from-scratch query applies them in its pass over the store, one
// group at a time as the pass reaches it (deviceStore.walk), so that a
// group off the device is read once and written once, where the workers
// would fault nearly every group through the cache, evicting and writing
// back as they go, before the pass reads it again; in RAM it hands them to
// the workers (ramStore.firstRound), which apply a slice's many across the
// shards. The caller holds the quiesce write lock.
func (e *Engine) takeLeftover() error {
	e.pending.Wait()
	q := e.qs
	err := e.buf.Flush(e.hold...)
	byNode := func(a, b gutter.Batch) int { return cmp.Compare(a.Node, b.Node) }
	if !slices.IsSortedFunc(q.left, byNode) {
		slices.SortStableFunc(q.left, byNode)
	}
	if err != nil {
		return err
	}
	return e.err()
}

// releaseLeftover hands the leftover batches q has not applied to the
// workers and leaves q with none. It waits for the ones q took from the
// gutters, so the sketches hold every one, but not for those a delta query
// logged (q.later): they count as applied at its cut, and every reader of
// the bytes they change — the next query's takeLeftover, a seal, Drain,
// exclusive, Close — waits on pending first. The caller holds the quiesce
// write lock.
func (e *Engine) releaseLeftover(q *querySession) error {
	rest := q.left[q.leftAt:]
	for _, b := range rest {
		e.dispatch(b)
	}
	for _, b := range q.later {
		e.dispatch(b)
	}
	clear(q.left)
	clear(q.later)
	q.left, q.leftAt, q.later = q.left[:0], 0, q.later[:0]
	if len(rest) == 0 {
		return nil
	}
	e.pending.Wait()
	return e.err()
}

// logLeftovers is a delta query's drain. A leftover batch that the capture
// logs (capture.logBatch) waits: under the quiesce lock the query only
// lists its node, appends its indices to the node's log and stamps the
// node (touch) at cut+1, the cut cacheResultLocked mints next, so the node
// counts as changed since the previous result and not since this one. The
// batch, marked pre-cut, moves to q.later; the plan applies those it reads
// live (applyLeftovers), the workers the rest after the cut
// (releaseLeftover), and neither records the change again
// (Engine.change). At most queueSlotsPerShard batches wait per owner: its
// queue is empty under the lock and holds that many, so handing them over
// never waits for a worker. Every other batch applies now, as its owner's
// worker would (applyBatch), and is recorded there: one whose node holds
// an image, one past its log's cap, any once the baseline has overflowed,
// and any past its owner's queue. A node's batches wait or apply
// together, so no log converts with indices its bytes do not hold yet. The caller holds the quiesce write lock with the workers idle, so
// the owners' scratch is free.
func (e *Engine) logLeftovers(q *querySession) error {
	q.queued = sized(q.queued, len(e.shards))
	for i := q.leftAt; i < len(q.left); {
		node, s, j := q.left[i].Node, e.ownerIndex(q.left[i].Node), i
		sh := e.shards[s]
		sh.indices = sh.indices[:0]
		for ; j < len(q.left) && q.left[j].Node == node; j++ {
			sh.indices = e.batchIndices(sh.indices, q.left[j])
		}
		if q.queued[s]+j-i <= queueSlotsPerShard && e.capture.logBatch(node, e.wantsBase(node), sh.indices) {
			q.queued[s] += j - i
			e.touch(node)
			for _, b := range q.left[i:j] {
				b.PreCut = true
				q.later = append(q.later, b)
			}
		} else {
			for _, b := range q.left[i:j] {
				e.applyBatch(sh, b)
				e.buf.Recycle(b.Others)
			}
		}
		i = j
	}
	clear(q.left)
	q.left, q.leftAt = q.left[:0], 0
	return e.err()
}

// applyLeftovers applies on the query goroutine the leftover batches a
// delta query logged (q.later) of the nodes whose live bytes its plan
// reads: the members of enumerated pieces (rolePiece). A dirty node of
// the other role contributes its log. Each applies as its owner's worker
// would apply it after the cut, a pre-cut batch that records no change.
// The rest stay in q.later. The caller holds the quiesce write lock with the workers
// idle.
func (e *Engine) applyLeftovers(q *querySession) error {
	kept, i := q.later[:0], 0
	for _, b := range q.later {
		for i < len(q.plan) && q.plan[i].node < b.Node {
			i++
		}
		if i < len(q.plan) && q.plan[i].node == b.Node && q.plan[i].role == rolePiece {
			e.applyBatch(e.ownerOf(b.Node), b)
			e.buf.Recycle(b.Others)
			continue
		}
		kept = append(kept, b)
	}
	clear(q.later[len(kept):])
	q.later = kept
	return e.err()
}

// runQueryLocked answers a cache-missed query, incrementally off the
// previous cached result when the dirty set allows it and from scratch
// otherwise. The caller holds the quiesce write lock with the workers
// drained (so shard state, the baseline included, is stable) but for q's
// leftover batches: the nodes they change count as dirty, and a delta
// query logs them before it reads the dirty set.
func (e *Engine) runQueryLocked(q *querySession, epoch uint64) (*queryResult, error) {
	prev := e.queryCache.Load()
	if !e.cfg.NoDeltaQuery && prev != nil {
		dirty, ok := e.dirtyCount(q, prev.cut)
		if ok && dirty == 0 {
			// The epoch moved but no sketch changed since prev was cached
			// (e.g. an install whose slots all equal the engine's): prev's
			// answer is exactly current — re-tag it at the new epoch.
			e.deltaQueries.Add(1)
			res := &queryResult{
				epoch: epoch, delta: true,
				forest: prev.forest, rep: prev.rep, count: prev.count,
			}
			if q.state == prev {
				q.state = res
			}
			return res, nil
		}
		if ok && float64(dirty) <= deltaQueryMaxDirtyFrac*float64(e.cfg.NumNodes) {
			if err := e.logLeftovers(q); err != nil {
				return nil, err
			}
			// A leftover batch applied here may have overflowed the
			// baseline (capture.begin): then no plan is made.
			if q.dirty, ok = e.capture.dirty(q.dirty[:0]); ok {
				slices.Sort(q.dirty)
				res, ok, err := e.runDeltaBoruvka(q, epoch, prev)
				if err != nil {
					return nil, err
				}
				if ok {
					e.deltaQueries.Add(1)
					return res, nil
				}
			}
			// The baseline overflowed, or the affected components failed
			// to certify within the sketch depth; the from-scratch run is
			// the correctness backstop, and its drain applies the batches
			// the query logged.
			q.reset()
			q.left = append(q.left, q.later...)
			clear(q.later)
			q.later = q.later[:0]
		}
		e.deltaFallbacks.Add(1)
		// The result supersedes prev's cut: the leftover batches the run
		// drains need no baseline entries.
		e.capture.abandon()
	}
	return e.runBoruvka(q, epoch)
}

// dirtyCount returns how many nodes are dirty since cut, the cached
// result's: those the baseline lists, plus the nodes of q's leftover
// batches that no change since cut has reached yet (their stamp is at most
// cut). ok is false when the baseline overflowed — past the delta query's
// threshold, or at a node whose entry it could not hold — and the query
// runs from scratch. O(dirty + leftover), where a stamp scan would be O(V).
func (e *Engine) dirtyCount(q *querySession, cut uint64) (n int, ok bool) {
	if e.capture.baseOver.Load() {
		return 0, false
	}
	n = len(e.capture.baseNodes)
	for i, b := range q.left {
		if (i == 0 || b.Node != q.left[i-1].Node) && e.stamp[b.Node].Load() <= cut {
			n++
		}
	}
	return n, true
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
	return slices.Clone(r.forest), err
}

// ConnectedComponents returns, for every node, a component representative,
// plus the number of components. Served from the epoch cache (no sketch
// work) when the graph is unchanged since the last full query.
func (e *Engine) ConnectedComponents() (rep []uint32, count int, err error) {
	r, err := e.query()
	if err != nil {
		return nil, 0, err
	}
	return slices.Clone(r.rep), r.count, nil
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
// query's plan (querySession.plan). prev(v) below is node v's sketch as
// the cached result observed it, and diff(v) = cur(v) ⊕ prev(v) its change
// since: the sketch of its log if the capture logged v, its live sketch ⊕
// its image if the capture imaged v, nothing if v is clean. A clean node
// whose component's previous aggregate is already accounted for — as the
// zero sketch of an intact component, or through the other pieces' prev
// terms of a cut one — has no role: it contributes nothing and is left
// out of the plan, which is what makes the delta's sketch work scale with
// the dirty set rather than the component size.
const (
	// roleDiff: a dirty member of an intact component, or of a cut
	// component's anchor piece; contributes diff(v).
	roleDiff = uint8(iota)
	// rolePiece: a member of a cut component's other pieces. It
	// contributes its live sketch to its own root and prev(v) = cur(v) ⊕
	// diff(v) to the root of its component's anchor piece
	// (planned.anchor), which folds into diff(v) — nothing at all for a
	// clean node — once the two roots have merged.
	rolePiece
)

// planned is one node of a delta query's plan: its role, and for a
// rolePiece node the node its component's star is centred on, which the
// piece search always leaves in the anchor piece.
type planned struct {
	node, anchor uint32
	role         uint8
}

// Sources of one contribution, XORed together: the node's live round-r
// sketch, the round-r bytes of its image, its log's round-r sketch.
const (
	srcLive = uint8(1) << iota
	srcImage
	srcLog
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

// sampleOut is one sampling worker's share of a round, live roots
// [lo, hi) summed one at a time in acc, and what it found there; giantAt
// is where among its candidates the giant's turn came, or -1.
type sampleOut struct {
	round, lo, hi int
	acc           cubesketch.Sketch
	cands         []candidate
	emptied       []uint32
	giantAt       int
	err           error
}

// querySession is the scratch of lazy Boruvka. The caller holds the
// quiesce write lock with the workers idle, so shard state may be read
// freely (and concurrently) for the duration; the engine keeps one session
// and resets it for every query (Engine.session), so a query allocates
// its result and nothing else.
//
// Between queries the session also keeps the cached result's partition
// and forest, for the next delta query to patch: state is the result they
// match, nil while a run has changed them. Then d is one star per
// component on the result's representatives, forest is the result's
// forest, and adjHead/adjNext/adjPrev are its adjacency lists.
type querySession struct {
	state    *queryResult
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

	// The leftover batches of a query's drain (takeLeftover), ascending by
	// node, and how many of them have been applied; later holds, ascending
	// by node, the ones a delta query logged and has not applied
	// (logLeftovers).
	left   []gutter.Batch
	leftAt int
	later  []gutter.Batch
	queued []int // per shard: how many of later its owner's queue takes

	// The round's samples (sampleRound): one out per sampling worker, then
	// their candidates and emptied roots in live-root order. forest
	// collects the query's edges, or holds the kept forest a delta query
	// patches; the result takes a copy.
	outs     []sampleOut
	giantOut sampleOut
	cands    []candidate
	emptied  []uint32
	forest   []stream.Edge
	// A round's sampling goroutines (sampleRound) run sampler, made once,
	// and each takes the next of outs by counting on next; sampled waits
	// for them. A go statement calling a func value without arguments
	// allocates no closure, so a round allocates nothing to start them.
	sampler func()
	next    atomic.Int32
	sampled sync.WaitGroup

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
	// anything, ascending, and the capture's images and logs behind
	// srcImage and srcLog. Without delta every live node contributes its
	// live sketch (a from-scratch query).
	delta  bool
	plan   []planned
	images map[uint32][]byte
	logs   [][]uint64
	// The delta's working sets. dirty lists the nodes changed since the
	// cached result (ascending), affected the cached representatives of
	// the components they dirty, removed the cut components' removed
	// forest edges, dropped their forest indices, moved the nodes to split
	// out of their cached stars, each set of them ending at an offset in
	// splits, and recentre the cut components whose star moves off the
	// cached representative.
	// isDirty (node-indexed), class and relabel (indexed by cached
	// representative) and mark (node-indexed) are kept all-false, all
	// classClean, the identity and all-zero between queries: a delta query
	// sets entries only for what it touches and undoDelta puts them back.
	// relabel[r] is the node component r's anchor piece is centred on;
	// mark[v] is 1 + the id of the search that visited v, or splitMark
	// once v is to be split out.
	dirty    []uint32
	affected []uint32
	removed  []stream.Edge
	dropped  []int32
	moved    []uint32
	splits   []int
	recentre []uint32
	isDirty  []bool
	class    []uint8
	relabel  []uint32
	mark     []int32
	// The kept forest's adjacency lists: edge i is half-edges 2i (at its U)
	// and 2i+1 (at its V), node v's half-edges a doubly linked list from
	// adjHead[v] (-1 ends it). treeOf walks a tree of them, noting in via
	// the edge it reached each node by; the piece search (cutPieces) runs one
	// breadth-first search per start. Searches that meet join one group
	// (group, a union-find over search ids), whose root search alone has
	// nodes left to expand; every visited node sits in exactly one
	// search's queue.
	adjHead, adjNext, adjPrev []int32
	via                       []int32
	grown                     []uint32
	searches                  []pieceSearch
	group                     []int32

	// What the query cost, by count, which tests pin: the longest
	// contribution list of any round (its sketch work per round), the DSU
	// operations (Find, Union, and one per element Split or Repoint
	// moves), the nodes the piece search expanded, the live roots of each
	// round; and over the session's
	// life, how often a delta query rebuilt the kept state (restore).
	maxContribs int
	dsuOps      int
	visits      int
	liveRoots   []int
	restores    int
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
	case roleDiff:
		if s >= 0 {
			q.contribs = append(q.contribs, contribution{v, s, q.diff(v)})
		}
	case rolePiece:
		diff := q.diff(v)
		a := q.slot[q.rep[p.anchor]]
		if s == a {
			// Merged with the anchor piece: cur(v) and prev(v) meet in one
			// aggregate and leave diff(v), nothing unless v is dirty.
			if s >= 0 && diff != 0 {
				q.contribs = append(q.contribs, contribution{v, s, diff})
			}
			return
		}
		if s >= 0 {
			q.contribs = append(q.contribs, contribution{v, s, srcLive})
		}
		if a >= 0 {
			q.contribs = append(q.contribs, contribution{v, a, srcLive ^ diff})
		}
	}
}

// diff returns the sources of diff(v), v's change since the cached
// result: its log's sketch when the capture logged v, its live sketch ⊕
// its image when it imaged v, and none when v is clean. A dirty node
// holds one or the other while the baseline has not overflowed, and a
// delta query runs only then.
func (q *querySession) diff(v uint32) uint8 {
	switch {
	case q.logs[v] != nil:
		return srcLog
	case q.images[v] != nil:
		return srcLive | srcImage
	}
	return 0
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
// aggregates, no counts — keeping every array for the next query. The DSU
// and the forest are left as they are: each path starts them itself, from
// singletons (runBoruvka) or from the kept partition and forest
// (runDeltaBoruvka), and the first round clears the finished flag of every
// root it lists.
func (q *querySession) reset() {
	q.delta, q.plan, q.images, q.logs = false, q.plan[:0], nil, nil
	q.held, q.arenaRound, q.arenaEnd, q.giant = q.held[:0], 0, 0, -1
	q.maxContribs, q.dsuOps, q.visits, q.liveRoots = 0, 0, 0, q.liveRoots[:0]
}

// result packages a from-scratch session's answer as a query result tagged
// with epoch: the final representatives off the DSU, whose Finds leave
// every set a star on its representative, the component count and a copy
// of the forest — the only allocations of a query.
func (q *querySession) result(epoch uint64) *queryResult {
	count := 0
	for i := range q.rep {
		if q.d.Find(uint32(i)) == uint32(i) {
			count++
		}
	}
	return &queryResult{
		epoch: epoch, delta: q.delta,
		forest: slices.Clone(q.forest), rep: slices.Clone(q.d.Parents()), count: count,
	}
}

// deltaResult packages a delta session's answer: a copy of the
// representatives, which are the DSU's parents with every set a star, and
// of the forest — one memmove each, the only pass over V a delta query
// makes. It leaves the session's state at the new result.
func (q *querySession) deltaResult(epoch uint64) *queryResult {
	res := &queryResult{
		epoch: epoch, delta: true, count: q.d.Count(),
		rep:    slices.Clone(q.d.Parents()),
		forest: slices.Clone(q.forest),
	}
	q.state = res
	return res
}

// restore rebuilds the session's kept state from res, which the session did
// not leave it at — a cached result after a run that failed or fell back:
// the DSU seeded as res's partition, one star per component, and res's
// forest with its adjacency lists. It costs what
// every delta query cost before the state was kept: O(V).
func (q *querySession) restore(res *queryResult) {
	q.rep = append(q.rep[:0], res.rep...)
	q.d.Seed(q.rep)
	q.forest = append(q.forest[:0], res.forest...)
	q.buildAdjacency()
	q.restores++
	q.state = res
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
// connected them. It returns the merged root and the root it absorbed. A
// delta query keeps every set a star: the absorbed side, the smaller, is
// walked over the kept forest before the edge joins it there, and its
// members re-pointed at the merged root.
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
	if absorbed = ra; root == ra {
		absorbed = rb
	}
	if !q.delta {
		q.forest = append(q.forest, eg)
		return root, absorbed, true
	}
	q.grown = q.treeOf(absorbed, q.grown[:0])
	q.d.Repoint(q.grown, root)
	q.dsuOps += len(q.grown)
	q.link(eg)
	return root, absorbed, true
}

// runBoruvka executes the from-scratch lazy Boruvka rounds on the reset
// session q, from singletons, and returns the full query result tagged with
// epoch. On ErrQueryFailed the partial result is still returned.
//
// With delta queries on, the session keeps the result's partition, as the
// stars result leaves in the DSU, and its forest, laid out as adjacency
// lists here: O(V) in a query that costs O(V·slot) anyway.
func (e *Engine) runBoruvka(q *querySession, epoch uint64) (*queryResult, error) {
	q.state = nil
	q.d.Reset()
	q.forest = q.forest[:0]
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
	if !e.cfg.NoDeltaQuery {
		q.buildAdjacency()
		q.state = res
	}
	return res, nil
}

// Classes of a component of the cached partition under a delta query.
const (
	classClean  = iota // no dirty member: its star carries over untouched
	classIntact        // re-certified from its dirty members' diffs
	classCut           // possibly-deleted forest edges removed, pieces kept
	numDeltaClasses
)

// splitMark marks a node split out of its cached star (cutPieces) until
// undoDelta clears it.
const splitMark = -1

// runDeltaBoruvka answers a query incrementally off the previous cached
// result. A component of prev's partition containing no dirty node is
// clean: every edge toggle since prev landed batches on both endpoints'
// sketches, so a clean component had no incident toggle — its forest
// edges are still genuine and its (empty) cut is unchanged. The session
// keeps prev's partition as one DSU star per component on its cached
// representative, and a clean star is never listed, so never touched
// again. No candidate edge can cross from an affected component into a
// clean one (such an edge either existed at prev time, putting both sides
// in one prev component, or was toggled since, dirtying both endpoints),
// so the carried-over partition is never disturbed.
//
// An affected component falls in one of two classes, the same in RAM and
// out of core. Everything rests on one fact: a cached component's round
// aggregates were the ZERO sketch (its cut was certified empty), so with
// prev(v) the sketch the cached result observed — cur(v) ⊕ diff(v), where
// diff(v) is the sketch of v's log or cur(v) ⊕ v's image if v is dirty,
// and zero if not — the XOR of prev(v) over the component is zero in
// every round.
//
// Intact: no forest edge has both endpoints dirty, so none can have been
// deleted (a deletion dirties exactly its two endpoints) and the forest
// still spans the component. It stays one star, and its current round-r
// aggregate is the XOR of its dirty members' diffs: toggles internal to
// the component enter two members' diffs and cancel, a toggle crossing its
// boundary enters one and survives, so the diffs alone ARE its current cut
// — O(dirty members) sketch work, of their logged indices, with no read
// of a live sketch.
//
// Cut: some forest edges have both endpoints dirty and may be gone. Only
// those are removed; every other forest edge has a clean endpoint, cannot
// have been toggled, and keeps its sub-tree (a piece) together. The
// pieces' prev aggregates XOR to zero, so any one piece's — the anchor's —
// is the XOR of prev(v) over all the OTHER pieces' members: those members
// contribute cur(v) to their own root and prev(v) to the anchor's, whose
// own dirty members add their diffs. cutPieces finds the pieces by
// searching the kept forest outward from the removed edges' endpoints in
// lockstep, never crossing a removed edge, and stops when one search is
// left: that unfinished piece is the anchor and stays in the star, the
// enumerated ones are split out. Work is O(dirty + the enumerated pieces'
// members) — detaching a leaf from a giant component touches the leaf and
// the dirty nodes, never the giant's members — unless the cached
// representative itself lies in an enumerated piece: the anchor's star is
// then re-centred on one of its members, O(anchor).
//
// The capture holds a log or an image for every dirty node, or the
// baseline has overflowed and the query never reaches here (dirtyCount,
// capture.dirty), so diff(v), and with it prev(v), is known for every
// member.
//
// The dirty set is the baseline's list, the removed edges are found from
// the dirty nodes' adjacency lists, merges go by size and re-point the
// smaller side's members (join): beyond the copy that publishes the result
// (deltaResult), one memmove of the partition and of the forest, no step
// of the query passes over all V nodes or the whole forest, and what it
// writes is the dirty nodes, the pieces it enumerates and the smaller side
// of each merge. The kept state is rebuilt from
// prev, in O(V), only when the session did not leave it at prev (restore).
//
// ok=false (with no error) means the affected components failed to
// certify within the sketch depth; the caller falls back to the
// from-scratch run rather than surfacing a partial delta, keeping the
// result contract identical to a full query.
func (e *Engine) runDeltaBoruvka(q *querySession, epoch uint64, prev *queryResult) (res *queryResult, ok bool, err error) {
	if q.state != prev {
		q.restore(prev)
	}
	// From here the run changes the kept state; deltaResult sets it again.
	q.state = nil
	// Workers are idle under the write lock: the images and logs are
	// stable.
	q.delta, q.images, q.logs = true, e.capture.base, e.capture.logs
	defer q.undoDelta()
	// Every set is a star, so a Find is one step and reads the cached
	// representative until the splits below.
	for _, v := range q.dirty {
		q.isDirty[v] = true
		r := q.find(v)
		if q.class[r] == classClean {
			q.class[r] = classIntact
			q.affected = append(q.affected, r)
		}
	}
	// Clean and intact components keep their whole tree, a cut one the
	// sub-trees between its removed edges.
	for _, v := range q.dirty {
		r := q.find(v)
		for h := q.adjHead[v]; h >= 0; h = q.adjNext[h] {
			if w := q.other(h); v < w && q.isDirty[w] {
				q.class[r] = classCut
				q.removed = append(q.removed, stream.Edge{U: v, V: w})
				q.dropped = append(q.dropped, h>>1)
			}
		}
	}
	var classCount [numDeltaClasses]uint64
	classCount[classClean] = uint64(prev.count - len(q.affected))
	for _, r := range q.affected {
		classCount[q.class[r]]++
	}
	for c, k := range classCount {
		e.deltaClasses[c].Add(k)
	}

	// One piece search per cut component, over its removed edges.
	slices.SortStableFunc(q.removed, func(a, b stream.Edge) int {
		return cmp.Compare(q.find(a.U), q.find(b.U))
	})
	for rs := q.removed; len(rs) > 0; {
		r, k := q.find(rs[0].U), 1
		for k < len(rs) && q.find(rs[k].U) == r {
			k++
		}
		q.cutPieces(r, rs[:k])
		rs = rs[k:]
	}
	for _, v := range q.dirty {
		// Intact, or the anchor piece of a cut.
		if c := q.class[q.find(v)]; c == classIntact || c == classCut && q.mark[v] != splitMark {
			q.plan = append(q.plan, planned{node: v, role: roleDiff})
		}
	}
	slices.SortFunc(q.plan, func(a, b planned) int { return cmp.Compare(a.node, b.node) })

	// The forest loses the removed edges, so that its trees span the sets
	// the splits leave.
	slices.SortFunc(q.dropped, func(a, b int32) int { return cmp.Compare(b, a) })
	for _, i := range q.dropped {
		q.unlink(i)
	}
	for _, r := range q.recentre {
		q.grown = q.treeOf(q.relabel[r], q.grown[:0])
		q.split(q.grown)
	}
	start := 0
	for _, end := range q.splits {
		q.split(q.moved[start:end])
		start = end
	}

	if err := e.applyLeftovers(q); err != nil {
		return nil, false, err
	}
	live, rounds, err := e.boruvkaRounds(q)
	if err != nil {
		return nil, false, err
	}
	if live > 0 {
		return nil, false, nil
	}
	res = q.deltaResult(epoch)
	e.lastRounds.Store(int64(rounds))
	e.lastDeltaContribs.Store(int64(q.maxContribs))
	e.lastDeltaOps.Store(int64(q.dsuOps))
	e.lastDeltaVisits.Store(int64(q.visits))
	return res, true, nil
}

// split moves xs out of their star into one of their own on xs[0],
// counting each element moved as a DSU operation.
func (q *querySession) split(xs []uint32) {
	q.d.Split(xs)
	q.dsuOps += len(xs)
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
	q.affected, q.removed, q.dropped = q.affected[:0], q.removed[:0], q.dropped[:0]
	q.moved, q.splits, q.recentre = q.moved[:0], q.splits[:0], q.recentre[:0]
	q.searches, q.group = q.searches[:0], q.group[:0]
}

// buildAdjacency lays the session's forest out as adjacency lists.
func (q *querySession) buildAdjacency() {
	n, halves := len(q.rep), 2*len(q.forest)
	if q.adjHead == nil {
		q.adjHead = make([]int32, n)
		q.adjNext, q.adjPrev = make([]int32, 2*n), make([]int32, 2*n)
	}
	for i := range q.adjHead {
		q.adjHead[i] = -1
	}
	next, prev := q.adjNext[:halves], q.adjPrev[:halves]
	for i, eg := range q.forest {
		h := int32(2 * i)
		for _, v := range [2]uint32{eg.U, eg.V} {
			if first := q.adjHead[v]; first >= 0 {
				prev[first] = h
			}
			next[h], prev[h], q.adjHead[v] = q.adjHead[v], -1, h
			h++
		}
	}
}

// at returns the node half-edge h sits at, and other the node it leads to.
func (q *querySession) at(h int32) uint32 {
	eg := q.forest[h>>1]
	if h&1 == 0 {
		return eg.U
	}
	return eg.V
}

func (q *querySession) other(h int32) uint32 { return q.at(h ^ 1) }

// linkHalf puts half-edge h at the head of its node's list.
func (q *querySession) linkHalf(h int32) {
	v := q.at(h)
	q.adjPrev[h], q.adjNext[h] = -1, q.adjHead[v]
	if q.adjHead[v] >= 0 {
		q.adjPrev[q.adjHead[v]] = h
	}
	q.adjHead[v] = h
}

// unlinkHalf takes half-edge h out of its node's list.
func (q *querySession) unlinkHalf(h int32) {
	p, nx := q.adjPrev[h], q.adjNext[h]
	if p >= 0 {
		q.adjNext[p] = nx
	} else {
		q.adjHead[q.at(h)] = nx
	}
	if nx >= 0 {
		q.adjPrev[nx] = p
	}
}

// moveHalf renames half-edge from, whose edge has just been copied to
// to's slot, as to, in its node's list.
func (q *querySession) moveHalf(from, to int32) {
	p, nx := q.adjPrev[from], q.adjNext[from]
	q.adjPrev[to], q.adjNext[to] = p, nx
	if p >= 0 {
		q.adjNext[p] = to
	} else {
		q.adjHead[q.at(to)] = to
	}
	if nx >= 0 {
		q.adjPrev[nx] = to
	}
}

// link adds edge eg to the kept forest and its adjacency lists.
func (q *querySession) link(eg stream.Edge) {
	i := int32(len(q.forest))
	q.forest = append(q.forest, eg)
	q.linkHalf(2 * i)
	q.linkHalf(2*i + 1)
}

// unlink takes edge i out of the kept forest and its adjacency lists,
// moving the last edge into its slot: edges above i change index, so a
// caller removing several goes from the highest index down.
func (q *querySession) unlink(i int32) {
	q.unlinkHalf(2 * i)
	q.unlinkHalf(2*i + 1)
	last := int32(len(q.forest) - 1)
	if i != last {
		q.forest[i] = q.forest[last]
		q.moveHalf(2*last, 2*i)
		q.moveHalf(2*last+1, 2*i+1)
	}
	q.forest = q.forest[:last]
}

// treeOf appends to dst the nodes of v's tree in the kept forest, v
// first, by a walk that never goes back along the edge it came by.
func (q *querySession) treeOf(v uint32, dst []uint32) []uint32 {
	base := len(dst)
	dst = append(dst, v)
	q.via = append(q.via[:0], -1)
	for i := base; i < len(dst); i++ {
		in := q.via[i-base]
		for h := q.adjHead[dst[i]]; h >= 0; h = q.adjNext[h] {
			if h>>1 != in {
				dst = append(dst, q.other(h))
				q.via = append(q.via, h>>1)
			}
		}
	}
	return dst
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
	for h := q.adjHead[v]; h >= 0; h = q.adjNext[h] {
		w := q.other(h)
		if q.isDirty[v] && q.isDirty[w] {
			continue // a removed edge
		}
		if m := q.mark[w]; m == 0 {
			q.mark[w] = int32(i) + 1
			s.queue = append(s.queue, w)
		} else if g := q.groupOf(m - 1); g != int32(i) {
			t := &q.searches[g]
			s.queue = append(s.queue, t.queue[t.head:]...)
			t.queue = t.queue[:t.head]
			q.group[g] = int32(i)
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
// in an enumerated piece, the anchor is queued to be re-centred on its
// first search start instead (relabel, recentre), and r's piece keeps r's
// star once the anchor has left it.
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
	kept := int32(-1) // r's piece, when it is enumerated
	if m := q.mark[r]; m != 0 && q.groupOf(m-1) != anchor {
		kept = q.groupOf(m - 1)
		q.relabel[r] = q.searches[anchor].queue[0]
		q.recentre = append(q.recentre, r)
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
		if g == kept {
			q.moved = q.moved[:start]
		} else {
			q.splits = append(q.splits, len(q.moved))
		}
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
	// A round of few terms — a delta query's — runs on this goroutine
	// alone.
	workers := min(len(e.shards), nr)
	if len(q.contribs) < parallelSampleMin {
		workers = 1
	}
	chunk := (nr + workers - 1) / workers
	for len(q.outs) < workers {
		q.outs = append(q.outs, sampleOut{})
	}
	outs := q.outs[:workers]
	for w := range outs {
		out := &outs[w]
		out.round, out.lo, out.hi = round, w*chunk, min((w+1)*chunk, nr)
		out.cands, out.emptied, out.giantAt, out.err = out.cands[:0], out.emptied[:0], -1, nil
	}
	if q.sampler == nil {
		q.sampler = func() {
			defer q.sampled.Done()
			e.sampleRoots(q, &q.outs[q.next.Add(1)-1])
		}
	}
	q.next.Store(0)
	q.sampled.Add(workers - 1)
	for range workers - 1 {
		go q.sampler()
	}
	e.sampleRoots(q, &outs[workers-1])
	q.sampled.Wait()
	for i := range outs {
		if outs[i].err != nil {
			return fmt.Errorf("core: merging supernodes: %w", outs[i].err)
		}
	}
	g := &q.giantOut
	g.cands, g.emptied = g.cands[:0], g.emptied[:0]
	if q.giant >= 0 {
		if err := e.sketches.rootSketch(q, q.giant, round, &g.acc); err != nil {
			return fmt.Errorf("core: merging supernodes: %w", err)
		}
		e.sampleRoot(q, q.giant, &g.acc, g)
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

// parallelSampleMin is the fewest contributions a round sums across the
// sampling goroutines. Below it the sums, at most a few microseconds of
// sketch XOR, cost less than starting a goroutine and waking a thread to
// run it, which a trickle's delta query would otherwise pay every round.
const parallelSampleMin = 64

// sampleRoots is one sampling worker of sampleRound: for out's live roots
// but the giant it has the store materialize each root's supernode sketch
// in out's accumulator and queries it for a cut edge.
func (e *Engine) sampleRoots(q *querySession, out *sampleOut) {
	for i := out.lo; i < out.hi; i++ {
		if i == q.giant {
			out.giantAt = len(out.cands)
			continue
		}
		if err := e.sketches.rootSketch(q, i, out.round, &out.acc); err != nil {
			out.err = err
			return
		}
		e.sampleRoot(q, i, &out.acc, out)
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

// mergeCaptured XORs what the capture holds for c.node into its root's
// arena stack, over the arena's rounds from round on, when the
// contribution asks for it: its image's bytes of those rounds, or its log
// applied with the arena's round seeds, which is the log's sketch of
// those rounds. A log needs nothing from the store.
func (q *querySession) mergeCaptured(arena *cubesketch.Slab, c contribution, round int) error {
	switch {
	case c.src&srcLog != 0:
		arena.Apply(int(q.arenaSlot[c.slot]), q.logs[c.node])
	case c.src&srcImage != 0:
		off := round * arena.SketchSize()
		return arena.MergeNodeBinary(int(q.arenaSlot[c.slot]), q.images[c.node][off:off+arena.NodeSize()])
	}
	return nil
}
