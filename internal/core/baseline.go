package core

import "bytes"

// AdoptQueryBaseline seeds this engine's incremental-query state from
// another engine's current cached result, so the first query here can run
// the delta path instead of a cold from-scratch Boruvka. The intended
// caller is gzserve's coordinator refresh: each refresh builds a brand-new
// aggregator engine by merging worker checkpoints, and without adoption
// every merged-cut query is cold even when the workers only trickled a
// few updates since the previous refresh.
//
// Adoption compares the two engines' sketch states node by node at the
// serialized-slot level: the baseline takes a fresh cut — which retires the
// every-non-empty-node stamping the checkpoint merges left behind — and
// only the nodes whose bytes differ are stamped after it and listed in the
// capture's dirty set. prev's cached result is transplanted as the
// baseline at that cut, its epoch deliberately staled so the lock-free
// fast path cannot serve it — the next query goes through the locked path
// and re-solves exactly the differing components, off the partition and
// forest prev's query session keeps for base, which moves to this engine
// (rebuilt from the transplant when prev's session does not hold them).
// When no node differs, the transplant is installed at the current epoch
// and queries hit the cache outright.
//
// Preconditions, checked and reported by the return value (false means no
// state was changed): both engines own the whole universe (a range
// engine answers no query), their sketch geometries agree (NumNodes, Seed,
// Columns, Rounds — the same compatibility rule as checkpoint merging),
// and prev's cached result is current (prev has not ingested past it).
// Either engine may keep its sketches in RAM or on a device. The engines
// must be otherwise idle — the coordinator adopts before publishing the
// new aggregator and before closing the old one.
func (e *Engine) AdoptQueryBaseline(prev *Engine) bool {
	if prev == nil || e == prev || e.ranged || prev.ranged {
		return false
	}
	if e.cfg.NumNodes != prev.cfg.NumNodes || e.cfg.Seed != prev.cfg.Seed ||
		e.cfg.Columns != prev.cfg.Columns || e.cfg.Rounds != prev.cfg.Rounds {
		return false
	}
	e.quiesce.Lock()
	defer e.quiesce.Unlock()
	prev.quiesce.Lock()
	defer prev.quiesce.Unlock()
	if e.closed.Load() || prev.closed.Load() || e.drainLocked() != nil || prev.drainLocked() != nil {
		return false
	}
	base := prev.queryCache.Load()
	if base == nil || base.epoch != prev.epoch.Load() {
		return false // stale baseline: its forest may predate prev's sketches
	}
	if e.sketches.flush() != nil || prev.sketches.flush() != nil {
		return false
	}

	// The diff below supersedes whatever this engine changed before
	// (typically every non-empty node, stamped by the checkpoint merges that
	// built it): a node with equal bytes is provably unchanged relative to
	// the baseline, so only the differing ones are stamped past the fresh
	// cut. Workers are idle under both write locks.
	cut := e.cut.Add(1)
	e.capture.releaseBase()

	// Diff the serialized node slots a node group — the unit of I/O — at a
	// time. Equal bytes mean equal sketches, so the set of differing nodes
	// is exactly the set whose cut information may have changed relative
	// to the state base observed. A slot that cannot be read counts as
	// differing.
	chunk := e.npg
	mine, theirs := make([]byte, chunk*e.slotSize), make([]byte, chunk*e.slotSize)
	var nDiff uint64
	for start := uint32(0); start < e.n; start += uint32(chunk) {
		count := min(chunk, int(e.n-start))
		errMine := e.sketches.readSlots(start, count, mine)
		errTheirs := prev.sketches.readSlots(start, count, theirs)
		for j := 0; j < count; j++ {
			a, b := mine[j*e.slotSize:(j+1)*e.slotSize], theirs[j*e.slotSize:(j+1)*e.slotSize]
			if errMine == nil && errTheirs == nil && bytes.Equal(a, b) {
				continue
			}
			nDiff++
			e.touch(start + uint32(j))
			// prev's bytes are the state the transplanted baseline
			// observed: exactly the image the delta query's diff
			// materialization needs for this node. When the baseline
			// refuses (nil), or prev's bytes could not be read, the node
			// is listed imageless, as on the apply path, and its
			// component re-solves from singletons.
			copy(e.capture.adopt(start+uint32(j), errTheirs == nil), b)
		}
	}

	cur := e.epoch.Load()
	res := &queryResult{
		cut:    cut,
		delta:  base.delta,
		forest: base.forest,
		rep:    base.rep,
		count:  base.count,
	}
	if nDiff == 0 {
		// Identical sketch state: the baseline answers the current graph.
		res.epoch = cur
	} else {
		// Staled on purpose (any value other than cur): the fast path must
		// miss, and the locked path finds the baseline plus precise stamps
		// and runs the delta.
		res.epoch = cur - 1
	}
	// prev's session keeps base's partition and forest: it moves here, so
	// the first delta query patches them rather than rebuilding them from
	// the transplant (restore). prev, about to be retired, makes a new
	// session if it queries again; its sampler is bound to prev.
	if q := prev.qs; q != nil && q.state == base {
		q.state, q.sampler = res, nil
		e.qs, prev.qs = q, nil
	}
	e.queryCache.Store(res)
	return true
}
