package core

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"graphzeppelin/internal/bitset"
)

// Delta checkpoints and the checkpoint chain. The stream layout is the one
// documented atop checkpoint.go; this file holds what makes a delta a
// delta: the chain envelope, the seal history that plans one, and the
// apply/patch consumers.
//
// GZM1 chain envelope (40 bytes + user metadata), sealed as the meta blob
// of every checkpoint this engine writes:
//
//	magic    [4]byte "GZM1"
//	chainTag uint64 — random per-lineage token (Engine.chainTag)
//	ckptID   uint64 — the id this seal minted (the tip, for a delta)
//	baseID   uint64 — the base checkpoint id a delta chains onto; 0 marks
//	  a full checkpoint
//	baseLSN  uint64 — the WAL LSN the base covered (0 full)
//	userLen  uint32, then userLen bytes of caller metadata
var (
	metaEnvelopeMagic = [4]byte{'G', 'Z', 'M', '1'}
)

const (
	metaEnvelopeLen = 40
	// maxSealHist bounds the per-seal dirty-set history: a delta base may
	// lag the tip by at most this many seals before the engine falls back
	// to a full checkpoint. Sixteen covers any realistic refresh cadence
	// while capping history RAM at 16 bit-vectors of the node universe.
	maxSealHist = 16
)

// ErrDeltaCheckpoint is returned when a delta checkpoint stream is handed
// to an operation that needs a self-contained checkpoint (restore, merge):
// a delta only has meaning applied on top of its exact base state.
var ErrDeltaCheckpoint = errors.New("core: delta checkpoint requires its base")

// ErrCheckpointChain is returned by ApplyDeltaCheckpoint when the delta
// does not chain onto this engine's current state: wrong lineage (chain
// tag), wrong base id (stale or out-of-order delta), or wrong base WAL
// position. The consumer should fall back to a full checkpoint pull.
var ErrCheckpointChain = errors.New("core: delta checkpoint does not chain onto current state")

// newChainTag mints the random per-lineage token that scopes checkpoint
// chain ids: ids are small counters, so two engine incarnations (a worker
// before and after a stateless restart, say) can mint the same id for
// different states — the 2^-64 tag collision probability is what makes the
// (tag, id, lsn) chain check sound across restarts.
func newChainTag() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("core: reading random chain tag: %v", err))
	}
	return binary.LittleEndian.Uint64(b[:])
}

// sealRecord is one entry of the seal history: the nodes dirtied between
// the previous seal and the seal that minted id, and the WAL position that
// seal covered. A delta against base b ships the union of the records with
// id > b.
type sealRecord struct {
	id    uint64
	lsn   uint64
	dirty *bitset.Set
}

// mintSealID advances the checkpoint chain at seal time: it captures and
// clears every shard's dirty-since-seal vector into a new history record,
// trims the history to maxSealHist (advancing the floor below which bases
// are forgotten), and publishes the new state id and covered LSN. Caller
// holds ckptMu and the quiesce write lock with the workers idle.
func (e *Engine) mintSealID(lsn uint64) uint64 {
	id := e.ckptSeq.Load() + 1
	dirty := bitset.New(uint64(e.cfg.NumNodes))
	for _, sh := range e.shards {
		sh.dirtySeal.OrInto(dirty)
		sh.dirtySeal.ClearAll()
	}
	e.sealHist = append(e.sealHist, sealRecord{id: id, lsn: lsn, dirty: dirty})
	for len(e.sealHist) > maxSealHist {
		e.histFloor = e.sealHist[0].id
		e.histFloorLSN = e.sealHist[0].lsn
		e.sealHist = e.sealHist[1:]
	}
	e.ckptSeq.Store(id)
	e.ckptLSN.Store(lsn)
	return id
}

// planDelta decides whether the seal minting newID can ship as a delta
// against baseID, and if so returns the sorted dirty node ids and the WAL
// LSN the base covered. It refuses when deltas are disabled, the base is
// unknown (not this lineage's retained history), or the dirty fraction
// exceeds Config.DeltaCheckpointThreshold — the caller then seals a full
// checkpoint, which is always a valid answer. Caller holds ckptMu and the
// quiesce write lock; mintSealID has already pushed newID's record.
func (e *Engine) planDelta(baseID, newID uint64) ([]uint32, uint64, bool) {
	thr := e.cfg.DeltaCheckpointThreshold
	if baseID == 0 || thr < 0 || baseID >= newID || baseID < e.histFloor {
		return nil, 0, false
	}
	baseLSN := e.histFloorLSN
	found := baseID == e.histFloor
	union := bitset.New(uint64(e.cfg.NumNodes))
	var count uint64
	for _, rec := range e.sealHist {
		if rec.id == baseID {
			baseLSN, found = rec.lsn, true
		}
		if rec.id > baseID {
			count += rec.dirty.OrInto(union)
		}
	}
	if !found || float64(count) > thr*float64(e.cfg.NumNodes) {
		return nil, 0, false
	}
	ids := make([]uint32, 0, count)
	union.ForEach(func(i uint64) bool {
		ids = append(ids, uint32(i))
		return true
	})
	return ids, baseLSN, true
}

// materializeDelta copies the current serialized stacks of the plan's
// dirty runs into the snapshot's delta buffer, under the quiesce write lock
// (a delta is at most a threshold fraction of the universe, so the copy is
// cheap enough to live inside the seal stall — no copy-on-write machinery
// needed). Disk mode first spills the write-back cache so device bytes are
// the seal-time truth.
func (e *Engine) materializeDelta(cs *CheckpointSnapshot) error {
	cs.deltaBuf = make([]byte, cs.Nodes()*e.slotSize)
	if e.cache != nil {
		if err := e.cache.WriteBackAll(); err != nil {
			return fmt.Errorf("core: sealing write-back cache for delta: %w", err)
		}
	}
	for _, run := range cs.sections {
		if err := e.readSlots(run.start, run.count, cs.deltaBuf[run.off:]); err != nil {
			return err
		}
	}
	return nil
}

// readSlots fills buf with the current serialized slots of nodes
// [start, start+count): marshalled out of the live slabs in RAM, one
// coalesced range read out of core (the caller has spilled or dropped the
// write-back cache, so device bytes are current). The caller holds the
// quiesce write lock with the workers idle.
func (e *Engine) readSlots(start uint32, count int, buf []byte) error {
	if e.store != nil {
		if err := e.store.ReadRange(start, count, buf[:count*e.slotSize]); err != nil {
			return fmt.Errorf("core: reading slots of nodes [%d,%d): %w", start, int(start)+count, err)
		}
		return nil
	}
	for j := 0; j < count; j++ {
		home, local := e.shardOf(start + uint32(j))
		home.slab.MarshalNode(local, buf[j*e.slotSize:(j+1)*e.slotSize])
	}
	return nil
}

// metaEnvelope is the decoded GZM1 chain envelope of a checkpoint's meta
// blob.
type metaEnvelope struct {
	chainTag uint64
	ckptID   uint64
	baseID   uint64
	baseLSN  uint64
	user     []byte
}

// encodeMetaEnvelope seals the chain identity and the caller metadata into
// one meta blob (the layout documented atop this file).
func encodeMetaEnvelope(tag, ckptID, baseID, baseLSN uint64, user []byte) []byte {
	buf := make([]byte, metaEnvelopeLen+len(user))
	copy(buf[0:4], metaEnvelopeMagic[:])
	binary.LittleEndian.PutUint64(buf[4:], tag)
	binary.LittleEndian.PutUint64(buf[12:], ckptID)
	binary.LittleEndian.PutUint64(buf[20:], baseID)
	binary.LittleEndian.PutUint64(buf[28:], baseLSN)
	binary.LittleEndian.PutUint32(buf[36:], uint32(len(user)))
	copy(buf[metaEnvelopeLen:], user)
	return buf
}

// parseMetaEnvelope decodes a meta blob; ok is false when it is not a
// well-formed envelope (every seal mints an id ≥ 1, and a delta's base
// precedes its tip).
func parseMetaEnvelope(meta []byte) (env metaEnvelope, ok bool) {
	if len(meta) < metaEnvelopeLen || [4]byte(meta[0:4]) != metaEnvelopeMagic ||
		int(binary.LittleEndian.Uint32(meta[36:])) != len(meta)-metaEnvelopeLen {
		return metaEnvelope{}, false
	}
	env = metaEnvelope{
		chainTag: binary.LittleEndian.Uint64(meta[4:]),
		ckptID:   binary.LittleEndian.Uint64(meta[12:]),
		baseID:   binary.LittleEndian.Uint64(meta[20:]),
		baseLSN:  binary.LittleEndian.Uint64(meta[28:]),
	}
	if len(meta) > metaEnvelopeLen {
		env.user = meta[metaEnvelopeLen:]
	}
	return env, env.ckptID != 0 && env.baseID < env.ckptID
}

// adoptChainMeta moves the engine to the chain position of a checkpoint
// whose state it now holds exactly — a restore into a fresh engine, or an
// applied delta's tip: WAL coverage, user metadata and chain identity. The
// engine continues the writer's lineage, so deltas it later seals chain
// onto this state and deltas the writer sealed against it still apply.
// Any seal history described paths from other states and is dropped: the
// next seal's delta base must be this position or later, which is the only
// base a consumer of this state could hold anyway.
func (e *Engine) adoptChainMeta(h checkpointHeader, env metaEnvelope) {
	e.restoredWALPos = h.walLSN
	e.restoredMeta = env.user
	e.chainTag = env.chainTag
	e.ckptSeq.Store(env.ckptID)
	e.ckptLSN.Store(h.walLSN)
	e.sealHist = nil
	e.histFloor = env.ckptID
	e.histFloorLSN = h.walLSN
}

// markChangedNode records an out-of-band sketch mutation of node (a
// checkpoint merge, delta apply, or node patch — anything bypassing the
// batch apply path) in both dirty epochs, capturing the node's pre-change
// image for the delta query the way the apply path does when the stack is
// at hand in a slab; an out-of-core mutation leaves the node imageless, and
// the next delta query re-solves its component from singletons. Must run
// BEFORE the mutation, under the quiesce write lock with the workers idle.
func (e *Engine) markChangedNode(node uint32) {
	home, local := e.shardOf(node)
	if e.store == nil {
		if img := e.beforeImage(node); img != nil {
			home.slab.MarshalNode(local, img)
		}
	}
	home.dirty.Set(uint64(node))
	home.dirtySeal.Set(uint64(node))
}

// WriteDeltaCheckpoint seals and streams a checkpoint that is a delta
// against this engine's earlier seal baseID when possible, falling back to
// a full checkpoint otherwise (see SealCheckpointSince for the fallback
// conditions). It reports which kind was written and never truncates the
// WAL — the log past the base is what recovers a lost or corrupt delta.
func (e *Engine) WriteDeltaCheckpoint(w io.Writer, baseID uint64) (delta bool, err error) {
	cs, err := e.SealCheckpointSince(baseID)
	if err != nil {
		return false, err
	}
	defer cs.Close()
	if err := cs.StreamTo(w); err != nil {
		return cs.IsDelta(), err
	}
	return cs.IsDelta(), nil
}

// ApplyDeltaCheckpoint advances this engine's state from the delta's base
// to its tip by replacing the dirty nodes' serialized stacks. The engine
// must hold exactly the base state, enforced by the (chainTag, baseID,
// baseLSN) check against the current chain position — a stale, repeated,
// or out-of-order delta fails with ErrCheckpointChain before any state
// changes, and a corrupt or truncated stream fails with the body fully
// validated in RAM first, so a failed apply never leaves partial state.
//
// onReplace, when non-nil, receives each replaced node's full serialized
// before and after stacks (valid only during the call): an aggregator
// feeds these straight into PatchNodes on a downstream engine, which is
// how delta refresh composes with delta queries. The replaced nodes are
// marked in both dirty epochs, so queries and later seals on this engine
// see the change precisely.
func (e *Engine) ApplyDeltaCheckpoint(r io.Reader, onReplace func(node uint32, before, after []byte)) error {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.quiesce.Lock()
	defer e.quiesce.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if err := e.drainLocked(); err != nil {
		return err
	}
	br := asBufReader(r)
	h, env, err := readCheckpointHeader(br)
	if err != nil {
		return err
	}
	if env.baseID == 0 {
		return fmt.Errorf("%w: ApplyDeltaCheckpoint needs a delta, got a full checkpoint", ErrCorruptCheckpoint)
	}
	if err := e.checkCompatible(h); err != nil {
		return err
	}
	if env.chainTag != e.chainTag || env.baseID != e.ckptSeq.Load() || env.baseLSN != e.ckptLSN.Load() {
		return fmt.Errorf("%w: delta (tag=%#x base=%d@lsn %d) vs engine (tag=%#x state=%d@lsn %d)",
			ErrCheckpointChain, env.chainTag, env.baseID, env.baseLSN,
			e.chainTag, e.ckptSeq.Load(), e.ckptLSN.Load())
	}
	// Read and validate the whole body into RAM — every section check and
	// CRC of readSections, plus every slot's per-round encoding against a
	// scratch slab — before touching live state: the install below must not
	// be able to fail halfway.
	type verifiedRun struct {
		start uint32
		count int
		slots []byte
	}
	var runs []verifiedRun
	scratch := e.newSlab(1)
	err = e.readSections(br, h, true, func(start uint32, count int, payload []byte) error {
		for j := 0; j < count; j++ {
			if err := scratch.UnmarshalNode(0, payload[j*e.slotSize:(j+1)*e.slotSize]); err != nil {
				return fmt.Errorf("%w: delta slot of node %d: %v", ErrCorruptCheckpoint, start+uint32(j), err)
			}
		}
		runs = append(runs, verifiedRun{start, count, append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		return err
	}

	// The cache's dirty state is ahead of the device and resident copies go
	// stale under the replacement — spill and drop it.
	if e.cache != nil {
		if err := e.cache.Invalidate(); err != nil {
			return fmt.Errorf("core: invalidating write-back cache for delta apply: %w", err)
		}
	}
	for _, run := range runs {
		var before []byte
		if onReplace != nil {
			before = make([]byte, len(run.slots))
			if err := e.readSlots(run.start, run.count, before); err != nil {
				return err
			}
		}
		for j := 0; j < run.count; j++ {
			e.markChangedNode(run.start + uint32(j))
		}
		if err := e.decodeSection(run.start, run.count, run.slots); err != nil {
			return err
		}
		for j := 0; onReplace != nil && j < run.count; j++ {
			onReplace(run.start+uint32(j), before[j*e.slotSize:(j+1)*e.slotSize], run.slots[j*e.slotSize:(j+1)*e.slotSize])
		}
	}

	// The engine now holds exactly the tip state: adopt its position.
	e.updates.Store(h.updates)
	e.adoptChainMeta(h, env)
	e.epoch.Add(1)
	return nil
}

// PatchNodes XOR-merges per-node (before, after) serialized stack pairs
// into this RAM-resident engine: each listed node's sketches become
// node ⊕ before ⊕ after. An aggregator holding the sum of several source
// engines uses this to replace one source's stale contribution with its
// current one — the slot pairs come verbatim from ApplyDeltaCheckpoint's
// onReplace — at O(patch) cost instead of re-merging every source.
// updatesTotal replaces the engine's update count (the aggregate total is
// recomputed by the caller from its sources). Slots are validated before
// any state changes; the patched nodes are marked in both dirty epochs
// with before-images captured, so the next query runs the delta path over
// the touched components only.
func (e *Engine) PatchNodes(ids []uint32, before, after []byte, updatesTotal uint64) error {
	if e.store != nil {
		return errors.New("core: PatchNodes requires RAM-resident sketches")
	}
	if len(before) != len(ids)*e.slotSize || len(after) != len(ids)*e.slotSize {
		return fmt.Errorf("core: PatchNodes: %d ids with %d/%d slot bytes, want %d each",
			len(ids), len(before), len(after), len(ids)*e.slotSize)
	}
	for _, node := range ids {
		if node >= e.cfg.NumNodes {
			return fmt.Errorf("core: PatchNodes: node %d out of range (%d nodes)", node, e.cfg.NumNodes)
		}
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.quiesce.Lock()
	defer e.quiesce.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if err := e.drainLocked(); err != nil {
		return err
	}
	if len(ids) == 0 {
		if updatesTotal != e.updates.Load() {
			e.updates.Store(updatesTotal)
			e.epoch.Add(1)
		}
		return nil
	}
	scratch := e.newSlab(1)
	for i, node := range ids {
		if err := scratch.UnmarshalNode(0, before[i*e.slotSize:(i+1)*e.slotSize]); err != nil {
			return fmt.Errorf("core: PatchNodes before-slot of node %d: %w", node, err)
		}
		if err := scratch.UnmarshalNode(0, after[i*e.slotSize:(i+1)*e.slotSize]); err != nil {
			return fmt.Errorf("core: PatchNodes after-slot of node %d: %w", node, err)
		}
	}
	for i, node := range ids {
		e.markChangedNode(node)
		home, local := e.shardOf(node)
		if err := home.slab.MergeNodeBinary(local, before[i*e.slotSize:(i+1)*e.slotSize]); err != nil {
			return fmt.Errorf("core: patching node %d (before): %w", node, err)
		}
		if err := home.slab.MergeNodeBinary(local, after[i*e.slotSize:(i+1)*e.slotSize]); err != nil {
			return fmt.Errorf("core: patching node %d (after): %w", node, err)
		}
	}
	e.updates.Store(updatesTotal)
	e.epoch.Add(1)
	return nil
}

// CompactCheckpoints folds a base checkpoint file plus an ordered delta
// chain into one full checkpoint at outPath, written with the crash-safe
// temp-fsync-rename discipline. The compacted file carries the tip's WAL
// coverage and user metadata, so once it has durably replaced the chain
// the caller may drop the delta files and truncate the WAL through the
// tip's position (TruncateWALThrough) — this is what bounds chain length
// and log growth. Compaction runs in a throwaway RAM engine; cfg supplies
// deployment knobs but sketches are forced into memory and the WAL off.
func CompactCheckpoints(outPath, basePath string, deltaPaths []string, cfg Config) error {
	cfg.SketchesOnDisk = false
	cfg.Dir = ""
	cfg.WAL = false
	cfg.WALStorage = nil
	cfg.NoRebalance = true
	e, err := OpenCheckpoint(basePath, cfg)
	if err != nil {
		return fmt.Errorf("core: compacting chain base %s: %w", basePath, err)
	}
	defer e.Close()
	for _, p := range deltaPaths {
		f, err := os.Open(p)
		if err != nil {
			return fmt.Errorf("core: compacting chain delta %s: %w", p, err)
		}
		err = e.ApplyDeltaCheckpoint(f, nil)
		f.Close()
		if err != nil {
			return fmt.Errorf("core: compacting chain delta %s: %w", p, err)
		}
	}
	return e.WriteCheckpointFile(outPath)
}
