package gzserve

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// claimState is the outcome of seqGate.Claim.
type claimState int

const (
	claimNew  claimState = iota // caller owns the apply for this seq
	claimDup                    // seq already applied; drop and ack duplicate
	claimBusy                   // seq being applied by another request now
)

// maxSeqGap bounds the applied set. A sequence number that is released
// and never retried (the sender gave up after MaxAttempts, or died)
// would stall the low-water mark forever, pinning every later committed
// seq in the applied map. Once more than maxSeqGap committed numbers
// pile up above a gap, the gap is declared abandoned and the low-water
// mark force-advances past it: memory stays bounded at the cost of
// treating a pathologically late retry of the abandoned seq as a
// duplicate. The bound is far above any real reorder window
// (MaxInFlight is single digits).
const maxSeqGap = 1 << 16

// seqGate is the at-most-once gate behind idempotent ingest: a sequence
// number must be claimed before its batch is applied, then committed
// (on success) or released (on failure, making a retry eligible again).
// Committed numbers compact into a low-water mark — all seq <= low are
// applied — so memory stays proportional to the reorder window, not the
// stream.
type seqGate struct {
	mu       sync.Mutex
	applied  map[uint64]struct{}
	inflight map[uint64]struct{}
	low      uint64
}

func newSeqGate() *seqGate {
	return &seqGate{
		applied:  make(map[uint64]struct{}),
		inflight: make(map[uint64]struct{}),
	}
}

// Claim reserves seq for application.
func (g *seqGate) Claim(seq uint64) claimState {
	g.mu.Lock()
	defer g.mu.Unlock()
	if seq <= g.low {
		return claimDup
	}
	if _, ok := g.applied[seq]; ok {
		return claimDup
	}
	if _, ok := g.inflight[seq]; ok {
		return claimBusy
	}
	g.inflight[seq] = struct{}{}
	return claimNew
}

// Commit marks a claimed seq applied and advances the low-water mark.
func (g *seqGate) Commit(seq uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.inflight, seq)
	if seq <= g.low {
		// The low-water mark force-advanced past this seq while its apply
		// was in flight; it already counts as applied.
		return
	}
	g.applied[seq] = struct{}{}
	for {
		if _, ok := g.applied[g.low+1]; ok {
			g.low++
			delete(g.applied, g.low)
			continue
		}
		if len(g.applied) <= maxSeqGap {
			return
		}
		// The gap at low+1 has been abandoned (see maxSeqGap): jump the
		// low-water mark to just below the smallest committed seq and let
		// compaction resume from there. Every applied key is > low >= 0,
		// so 0 works as the unset sentinel.
		var min uint64
		for s := range g.applied {
			if min == 0 || s < min {
				min = s
			}
		}
		g.low = min - 1
	}
}

// Release abandons a claimed seq (the apply failed); a retry may claim
// it again.
func (g *seqGate) Release(seq uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.inflight, seq)
}

// LowWater returns the highest seq below which everything is applied.
func (g *seqGate) LowWater() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.low
}

// settleFailed resolves a claimed seq after a failed apply on a durable
// worker. If the logged hook already committed the seq (the batch
// reached the WAL before the failure) it stays applied and the caller
// must report a non-retryable failure — a resend would be deduplicated,
// never re-applied. Otherwise nothing durable happened: the claim is
// released and the caller may invite a retry.
func (g *seqGate) settleFailed(seq uint64) (committed bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.inflight[seq]; ok {
		delete(g.inflight, seq)
		return false
	}
	return true
}

// markApplied commits a set of sequence numbers replayed from the WAL
// at recovery: their batches are back in the sketches, so retries must
// dedup exactly as if the crash never happened.
func (g *seqGate) markApplied(seqs []uint64) {
	for _, s := range seqs {
		if s != 0 {
			g.Commit(s)
		}
	}
}

// Gate snapshot codec (GZG1): the gate's durable state, sealed into
// checkpoint metadata so the dedup watermark survives a restart —
//
//	magic "GZG1" | low uint64 | count uint32 | count × seq uint64
//
// where the seqs are the committed numbers above the low-water mark
// (the out-of-order tail), sorted ascending. All little endian.
var gateMagic = [4]byte{'G', 'Z', 'G', '1'}

const gateSnapshotHeaderLen = 16

// snapshot serializes the gate. Sequence numbers still in flight are
// deliberately excluded: an in-flight batch has not been acked, so after
// a restart its retry must be applied, not deduplicated. (On the durable
// worker the logged hook commits a seq the instant its record is in the
// WAL, and the checkpoint seal excludes ingestion, so a seq that is
// "in flight but already logged" cannot be observed here.)
func (g *seqGate) snapshot() []byte {
	g.mu.Lock()
	seqs := make([]uint64, 0, len(g.applied))
	for s := range g.applied {
		seqs = append(seqs, s)
	}
	low := g.low
	g.mu.Unlock()
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	p := make([]byte, gateSnapshotHeaderLen, gateSnapshotHeaderLen+8*len(seqs))
	copy(p[:4], gateMagic[:])
	binary.LittleEndian.PutUint64(p[4:], low)
	binary.LittleEndian.PutUint32(p[12:], uint32(len(seqs)))
	for _, s := range seqs {
		p = binary.LittleEndian.AppendUint64(p, s)
	}
	return p
}

// restore loads a snapshot produced by snapshot. A nil blob (checkpoint
// written by a non-durable worker, or no checkpoint at all) leaves the
// gate fresh.
func (g *seqGate) restore(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if len(p) < gateSnapshotHeaderLen || [4]byte(p[:4]) != gateMagic {
		return fmt.Errorf("%w: checkpoint metadata is not a GZG1 gate snapshot", ErrBadPayload)
	}
	low := binary.LittleEndian.Uint64(p[4:])
	count := binary.LittleEndian.Uint32(p[12:])
	if uint64(len(p)-gateSnapshotHeaderLen) != uint64(count)*8 {
		return fmt.Errorf("%w: gate snapshot declares %d seqs but carries %d bytes", ErrBadPayload, count, len(p)-gateSnapshotHeaderLen)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.low = low
	for off := gateSnapshotHeaderLen; off < len(p); off += 8 {
		if s := binary.LittleEndian.Uint64(p[off:]); s > low {
			g.applied[s] = struct{}{}
		}
	}
	return nil
}
