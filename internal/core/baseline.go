package core

// AdoptQueryBaseline seeds this engine's incremental-query state from
// another engine's current cached result, so the first query here can run
// the delta path instead of a cold from-scratch Boruvka. The intended
// caller is gzserve's coordinator refresh: each refresh builds a brand-new
// aggregator engine by merging worker checkpoints, and without adoption
// every merged-cut query is cold even when the workers only trickled a
// few updates since the previous refresh.
//
// Adoption compares the two engines' sketch states node by node at the
// serialized-slot level: nodes whose bytes differ are marked dirty here
// (replacing the every-non-empty-node marking the checkpoint merges left
// behind), and prev's cached result is transplanted as the baseline, its
// epoch deliberately staled so the lock-free fast path cannot serve it —
// the next query goes through the locked path and re-solves exactly the
// differing components. When no node differs, the transplant is installed
// at the current epoch and queries hit the cache outright.
//
// Preconditions, checked and reported by the return value (false means no
// state was changed): both engines hold their sketches in RAM, their
// sketch geometries agree (NumNodes, Seed, Columns, Rounds — the same
// compatibility rule as checkpoint merging), and prev's cached result is
// current (prev has not ingested past it). The engines must be otherwise
// idle — the coordinator adopts before publishing the new aggregator and
// before closing the old one.
func (e *Engine) AdoptQueryBaseline(prev *Engine) bool {
	if prev == nil || e == prev {
		return false
	}
	if e.store != nil || prev.store != nil {
		return false // slot-byte comparison is wired for RAM slabs only
	}
	if e.cfg.NumNodes != prev.cfg.NumNodes || e.cfg.Seed != prev.cfg.Seed ||
		e.cfg.Columns != prev.cfg.Columns || e.cfg.Rounds != prev.cfg.Rounds {
		return false
	}
	e.quiesce.Lock()
	defer e.quiesce.Unlock()
	prev.quiesce.Lock()
	defer prev.quiesce.Unlock()
	if e.closed.Load() || prev.closed.Load() {
		return false
	}
	if err := e.drainLocked(); err != nil {
		return false
	}
	if err := prev.drainLocked(); err != nil {
		return false
	}
	base := prev.queryCache.Load()
	if base == nil || base.epoch != prev.epoch.Load() {
		return false // stale baseline: its forest may predate prev's sketches
	}

	// The diff below supersedes whatever dirty state this engine
	// accumulated (typically every non-empty node, marked by the checkpoint
	// merges that built it): a node with equal bytes is provably unchanged
	// relative to the baseline. Workers are idle under both write locks,
	// so the reset and re-mark cannot race a worker's Set.
	for _, sh := range e.shards {
		sh.dirty.ClearAll()
	}
	e.releaseBeforeLocked()

	// Diff the serialized node slots. Equal bytes mean equal sketches, so
	// the set of differing nodes is exactly the set whose cut information
	// may have changed relative to the state base observed.
	mine := make([]byte, e.slotSize)
	theirs := make([]byte, e.slotSize)
	var nDiff uint64
	for node := uint32(0); node < e.cfg.NumNodes; node++ {
		shA, locA := e.shardOf(node)
		shB, locB := prev.shardOf(node)
		shA.slab.MarshalNode(locA, mine)
		shB.slab.MarshalNode(locB, theirs)
		if string(mine) != string(theirs) {
			// Any shard's vector works — queries union them all; the home
			// shard keeps the choice deterministic.
			nDiff++
			shA.dirty.Set(uint64(node))
			// prev's bytes are the state the transplanted baseline
			// observed: exactly the before-image the delta query's diff
			// materialization needs for this node. Past the capture limit
			// (nil) the query falls back anyway.
			copy(e.addBefore(node), theirs)
		}
	}

	cur := e.epoch.Load()
	res := &queryResult{
		watermark: base.watermark,
		delta:     base.delta,
		forest:    base.forest,
		rep:       base.rep,
		count:     base.count,
	}
	if nDiff == 0 {
		// Identical sketch state: the baseline answers the current graph.
		res.epoch = cur
		res.watermark = cur
	} else {
		// Staled on purpose (any value other than cur): the fast path must
		// miss, and the locked path finds the baseline plus precise dirty
		// bits and runs the delta.
		res.epoch = cur - 1
	}
	e.queryCache.Store(res)
	return true
}
