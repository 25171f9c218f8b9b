package core

import (
	"runtime"
	"sync/atomic"
	"time"

	"graphzeppelin/internal/gutter"
)

// Skew-aware shard rebalancing.
//
// The static node % Shards partition serializes a skewed stream behind one
// Graph Worker: if most updates hit nodes homed on shard 0, the other
// workers idle while shard 0's queue saturates. The rebalancer fixes the
// *processing* side of that without touching storage: the node groups are
// dealt round-robin into numSlices slices (Engine.sliceOf: group %
// numSlices, a group being one node in RAM and one disk group slot out of
// core, so no group is ever split between workers; numSlices is a multiple
// of Shards so the initial slice → slice%Shards assignment reproduces the
// static partition exactly), and a background policy goroutine migrates
// hot slices from overloaded shards to underloaded ones. Sketch storage
// stays at the static home — a worker applying a migrated slice writes the
// home shard's slab (safe: Slab.Apply keeps all scratch per-call) — so
// query, checkpoint and stats layouts never change.
//
// The handoff protocol preserves per-node apply exclusivity and order:
//
//  1. The rebalancer installs a migration record for the slice (from, to,
//     done=false), then, holding the old owner's pushMu, flips the
//     assignment and pushes a sentinel batch (empty Others — every real
//     batch carries at least one update) into the old owner's queue.
//     Producers re-check the assignment under pushMu, so no batch can
//     land behind the sentinel.
//  2. The old owner keeps applying the slice's pre-sentinel batches
//     (awaitHandoff sees m.to != self and does not wait). Popping the
//     sentinel marks the record done: everything routed to the old queue
//     has been applied.
//  3. The new owner, popping the slice's first post-migration batch,
//     waits on done before applying (awaitHandoff). The wait is bounded
//     by the old queue's backlog, and cannot deadlock because at most one
//     migration is in flight engine-wide: the old owner itself never
//     waits on anything, so it always drains to the sentinel.
//
// Exclusivity (never two workers applying one node concurrently) follows:
// until done, only the old owner applies the slice; after done, only the
// new one. Order per node follows from the same argument plus per-queue
// FIFO. If the sentinel push fails (queue closed mid-shutdown), the queue
// is already drained, so the record is marked done immediately.

// migration is one in-flight slice handoff. done flips exactly once, when
// the old owner's worker pops the sentinel (or at push failure during
// shutdown).
type migration struct {
	slice    uint32
	from, to uint32
	done     atomic.Bool
}

// rebalanceMinGap is the minimum per-tick load gap (in batches) between
// the hottest and coolest shard before a migration is worth its handoff
// stall; below it the policy leaves the assignment alone.
const rebalanceMinGap = 16

// rebalanceMaxMoves bounds migrations per policy tick; convergence on a
// heavily skewed stream takes a few ticks instead of stalling one tick on
// a long migration train.
const rebalanceMaxMoves = 4

func (e *Engine) startRebalancer() {
	e.rebalStop = make(chan struct{})
	e.rebalWG.Add(1)
	go e.rebalanceLoop()
}

// stopRebalancer halts the policy goroutine. Idempotent via closeOnce (the
// only caller). A migration mid-wait is abandoned, not rolled back: its
// done flag is still set by the normal drain/close path.
func (e *Engine) stopRebalancer() {
	if e.rebalStop == nil {
		return
	}
	close(e.rebalStop)
	e.rebalWG.Wait()
}

func (e *Engine) rebalanceLoop() {
	defer e.rebalWG.Done()
	ticker := time.NewTicker(e.cfg.RebalanceInterval)
	defer ticker.Stop()
	last := make([]uint64, e.numSlices)
	delta := make([]uint64, e.numSlices)
	loads := make([]uint64, len(e.shards))
	for {
		select {
		case <-e.rebalStop:
			return
		case <-ticker.C:
		}
		e.rebalanceTick(last, delta, loads)
	}
}

// rebalanceTick snapshots per-slice push counts since the previous tick,
// folds them (plus current queue backlogs) into per-shard loads, and
// migrates hot slices from the most- to the least-loaded shard while the
// imbalance exceeds the configured factor. The scratch slices are owned by
// the loop and reused across ticks.
func (e *Engine) rebalanceTick(last, delta, loads []uint64) {
	for i := range loads {
		// Queue backlog counts toward load: a shard whose queue is deep is
		// behind even if this tick's pushes were even.
		loads[i] = uint64(e.shards[i].queue.Len())
	}
	var total uint64
	for s := range delta {
		cur := e.slicePushes[s].Load()
		delta[s] = cur - last[s]
		last[s] = cur
		loads[e.assign[s].Load()] += delta[s]
		total += delta[s]
	}
	if total == 0 {
		return
	}
	mean := float64(total) / float64(len(loads))
	for moves := 0; moves < rebalanceMaxMoves; moves++ {
		maxS, minS := 0, 0
		for i := range loads {
			if loads[i] > loads[maxS] {
				maxS = i
			}
			if loads[i] < loads[minS] {
				minS = i
			}
		}
		gap := loads[maxS] - loads[minS]
		if maxS == minS || gap < rebalanceMinGap || float64(loads[maxS]) < e.cfg.RebalanceFactor*mean {
			return
		}
		// Pick the slice to move: the biggest contributor that does not
		// overshoot the midpoint (moving more than gap/2 would just swap
		// which shard is hot); if every candidate overshoots, the smallest
		// one still helps as long as it is below the full gap.
		best, bestD := -1, uint64(0)
		small, smallD := -1, ^uint64(0)
		for s := range delta {
			if delta[s] == 0 || e.assign[s].Load() != uint32(maxS) {
				continue
			}
			if d := delta[s]; d <= gap/2 && d > bestD {
				best, bestD = s, d
			} else if d < smallD {
				small, smallD = s, d
			}
		}
		if best < 0 {
			if small < 0 || smallD >= gap {
				return // one indivisible hot slice; moving it cannot help
			}
			best, bestD = small, smallD
		}
		if !e.migrate(uint32(best), e.shards[maxS], e.shards[minS]) {
			return
		}
		loads[maxS] -= bestD
		loads[minS] += bestD
	}
}

// migrate hands slice off from one shard to another and waits for the
// handoff to complete (the single-in-flight-migration rule is what makes
// the worker-side wait in awaitHandoff deadlock-free). Returns false if
// the engine is shutting down.
func (e *Engine) migrate(slice uint32, from, to *shard) bool {
	if from == to {
		return true
	}
	slot := &e.migrations[slice]
	if m := slot.Load(); m != nil && !m.done.Load() {
		return false // previous handoff of this slice still in flight
	}
	m := &migration{slice: slice, from: uint32(from.id), to: uint32(to.id)}
	slot.Store(m)
	from.pushMu.Lock()
	e.assign[slice].Store(uint32(to.id))
	ok := from.queue.Push(gutter.Batch{Node: slice})
	from.pushMu.Unlock()
	if !ok {
		// Queue closed: already drained, nothing precedes the handoff.
		m.done.Store(true)
	}
	e.rebalances.Add(1)
	for !m.done.Load() {
		select {
		case <-e.rebalStop:
			return false
		default:
		}
		runtime.Gosched()
	}
	return true
}

// completeMigration is the old owner's side of the handoff: its worker
// popped the slice's sentinel, so every batch routed before the
// reassignment has been applied.
func (e *Engine) completeMigration(slice uint32) {
	if m := e.migrations[slice].Load(); m != nil {
		m.done.Store(true)
	}
}

// awaitHandoff is the new owner's side: before applying a batch for a
// slice with an in-flight migration targeting this shard, wait until the
// old owner drains to its sentinel. Pre-sentinel batches still queued at
// the old owner (m.to != sh.id) apply without waiting — that worker *is*
// the current owner until the sentinel. The done atomic's release/acquire
// pair makes the old owner's slab writes visible here.
func (e *Engine) awaitHandoff(sh *shard, node uint32) {
	slot := &e.migrations[e.sliceOf(node)]
	m := slot.Load()
	if m == nil {
		return
	}
	if m.to != uint32(sh.id) {
		return
	}
	spins := 0
	for !m.done.Load() {
		spins++
		if spins < 1024 {
			runtime.Gosched()
		} else {
			time.Sleep(5 * time.Microsecond)
		}
	}
	// Clear the slot so steady state pays one nil pointer load per batch.
	slot.CompareAndSwap(m, nil)
}
