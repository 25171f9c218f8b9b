package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/diskstore"
	"graphzeppelin/internal/wal"
)

// Checkpoint format — one layout for full and delta checkpoints:
//
//	magic    [4]byte "GZE5"
//	header   [48]byte:
//	  numNodes     uint32
//	  seed         uint64
//	  columns      uint32
//	  rounds       uint32
//	  updates      uint64
//	  sectionCount uint32
//	  walLSN       uint64 — last WAL LSN covered by this checkpoint (0
//	    with the WAL disabled); Recover replays only records above it,
//	    and a successful full checkpoint truncates the log up to it
//	  metaLen      uint32, metaCRC uint32 (CRC-32C of the meta blob)
//	meta     metaLen bytes — the GZM1 chain envelope (delta.go) wrapping
//	  opaque caller metadata sealed with the cut (gzserve stores its
//	  ingest-gate snapshot here so at-most-once state survives a restart
//	  together with the data it describes)
//	sections, in ascending, non-overlapping node order, each:
//	  section header [20]byte: startNode uint32, count uint32,
//	    payloadLen uint64 (= count × slotSize), crc uint32 (CRC-32C of
//	    the payload)
//	  payload: count × slotSize bytes — the serialized node slots of
//	    nodes [startNode, startNode+count), the same per-round
//	    MarshalBinary layout diskstore uses
//	footer:
//	  sectionCount entries [16]byte: startNode uint32, count uint32,
//	    offset uint64 (byte offset of the section header from the start
//	    of the checkpoint)
//	  trailer [16]byte: footerOffset uint64, sectionCount uint32,
//	    magic [4]byte "GZF3"
//
// A full checkpoint's sections tile [0, numNodes) and its envelope's
// baseID is 0. A delta checkpoint (envelope baseID != 0) is the same
// stream with only the runs of consecutive nodes dirtied since the base,
// cut at the same section boundaries — possibly none; header updates and
// walLSN then describe the tip state the delta advances to. A delta is
// not a diff: because sketches are linear, a node's current serialized
// stack simply replaces its stale bytes at the consumer, so applying a
// delta to an exact copy of the base state yields an exact copy of the
// tip state. That replacement semantic is only sound when the consumer
// really holds the base, which is what the chain envelope enforces. A
// full checkpoint is therefore the delta whose dirty set is the whole
// universe, and one encoder (streamCheckpoint) and one stream decoder
// (readSections) serve both.
//
// Sections are whole node ranges, so both encode and decode fan out
// across a worker pool: each worker owns whole sections, and in disk mode
// reads or writes its section with coalesced range I/O instead of one
// device access per node. The inline section headers make a plain
// io.Reader stream decodable front to back (and self-delimiting, so
// checkpoints concatenate — the extension container format relies on
// this); the streaming decoder rebuilds the footer from the sections it
// read and requires the stream's to match byte for byte. The footer is
// what lets an io.ReaderAt restore (OpenCheckpoint) jump straight to
// every section in parallel. Checksums are per section, so corruption is
// detected before that section's state is installed and is localized to a
// node range.
//
// Linearity makes checkpoints composable: because sketches are mergeable,
// a checkpoint written on one machine can be merged into a live engine
// with the same parameters elsewhere (the distributed-partitioning
// direction of the paper's conclusion; see MergeCheckpoint).

var (
	checkpointMagic = [4]byte{'G', 'Z', 'E', '5'}
	footerMagic     = [4]byte{'G', 'Z', 'F', '3'}
)

const (
	checkpointHeaderLen = 48
	sectionHeaderLen    = 20
	footerEntryLen      = 16
	footerTrailerLen    = 16
	// maxCheckpointMeta bounds the meta blob; a scanned metaLen above it
	// is corruption, not metadata.
	maxCheckpointMeta = 1 << 24
	// sectionTargetBytes is the payload size sections aim for: big enough
	// that disk-mode section I/O is a few large sequential accesses, small
	// enough that the encode fan-out has real parallelism on modest graphs.
	sectionTargetBytes = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrIncompatibleCheckpoint is returned when merging a checkpoint whose
// parameters (node count, seed, columns, rounds) differ from the engine's.
var ErrIncompatibleCheckpoint = errors.New("core: incompatible checkpoint parameters")

// ErrCorruptCheckpoint is returned when a checkpoint section fails its
// CRC-32C check or the stream structure is malformed.
var ErrCorruptCheckpoint = errors.New("core: corrupt checkpoint")

// checkpointCOWBudget caps the bytes of copy-on-write pre-images a
// disk-mode snapshot may hold in RAM. Out-of-core engines exist precisely
// because sketches exceed memory, so the capture must not degenerate into
// an in-RAM duplicate of the store under a slow writer: once the budget is
// exhausted, workers about to overwrite a not-yet-scanned slot wait until
// the scanner frees budget or passes their section — ingestion throttles
// to scan speed instead of exhausting memory. The scanner never waits on
// workers, so the wait always resolves.
const checkpointCOWBudget = 64 << 20

// ckptSnap is the copy-on-write capture of one in-flight disk-mode
// snapshot. The snapshot stream scans the store section by section while
// ingestion continues; any worker about to overwrite a slot in a
// not-yet-scanned section first deposits the slot's pre-image here
// (Engine.applyBatch), and the scanner substitutes deposited pre-images
// when it captures the section. Either the scanner read the slot before
// the worker's write (the device bytes are the pre-image) or the worker
// checked the scan state before writing (and deposited the pre-image), so
// every slot in the snapshot reflects exactly the drain-time cut.
type ckptSnap struct {
	mu              sync.Mutex
	cond            *sync.Cond // signalled when capture frees budget / scans a section
	scanned         []bool     // per-section: section fully captured
	nodesPerSection uint32
	pre             map[uint32][]byte // node -> pre-image slot bytes
	used            int               // bytes held in pre
	budget          int
}

func newCkptSnap(sections int, nps uint32, budget int) *ckptSnap {
	s := &ckptSnap{
		scanned:         make([]bool, sections),
		nodesPerSection: nps,
		pre:             make(map[uint32][]byte),
		budget:          budget,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// preserve deposits node's current slot bytes if its section has not been
// captured yet and no earlier pre-image exists (the first post-cut write
// is the one holding the cut-time state). When the pre-image budget is
// exhausted it blocks until the scanner frees some or scans past the
// section — bounded-memory backpressure, never unbounded growth.
func (s *ckptSnap) preserve(node uint32, blob []byte) {
	sec := int(node / s.nodesPerSection)
	s.mu.Lock()
	for !s.scanned[sec] {
		if _, ok := s.pre[node]; ok {
			break
		}
		if s.used+len(blob) <= s.budget {
			s.pre[node] = append([]byte(nil), blob...)
			s.used += len(blob)
			break
		}
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// needsPreImage reports whether any slot in [start, start+count) lies in
// a not-yet-captured section — i.e. whether a write about to overwrite
// those slots must deposit their pre-images first. Once every covering
// section is scanned, writers skip both the deposit and the pre-image
// device read that feeds it.
func (s *ckptSnap) needsPreImage(start uint32, count int) bool {
	lo := int(start / s.nodesPerSection)
	hi := int((start + uint32(count) - 1) / s.nodesPerSection)
	if hi >= len(s.scanned) {
		hi = len(s.scanned) - 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for sec := lo; sec <= hi; sec++ {
		if !s.scanned[sec] {
			return true
		}
	}
	return false
}

// capture marks section sec scanned and substitutes any deposited
// pre-images of nodes [start, start+count) into payload. Called by the
// scanner after it has read the section's device bytes; from here on
// workers write the section's slots freely.
func (s *ckptSnap) capture(sec int, start uint32, count int, payload []byte, slotSize int) {
	s.mu.Lock()
	s.scanned[sec] = true
	for node, pre := range s.pre {
		if node >= start && node < start+uint32(count) {
			copy(payload[int(node-start)*slotSize:], pre)
			s.used -= len(pre)
			delete(s.pre, node)
		}
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// finish releases the capture: every section is marked scanned so workers
// blocked in preserve (budget backpressure) always wake, even when the
// stream aborted before scanning them.
func (s *ckptSnap) finish() {
	s.mu.Lock()
	for i := range s.scanned {
		s.scanned[i] = true
	}
	s.pre = nil
	s.used = 0
	s.cond.Broadcast()
	s.mu.Unlock()
}

// nodeRun is one section of a checkpoint plan: the serialized slots of
// nodes [start, start+count). off is the byte offset of the run's first
// slot in a delta snapshot's buffer (CheckpointSnapshot.deltaBuf); a full
// checkpoint's plan leaves it 0.
type nodeRun struct {
	start uint32
	count int
	off   int
}

// sectionNodes picks how many nodes one section spans for this engine:
// sections target sectionTargetBytes of payload, with at least one section
// per shard worker so encode and restore fan out.
func (e *Engine) sectionNodes() uint32 {
	total := int64(e.cfg.NumNodes) * int64(e.slotSize)
	n := int((total + sectionTargetBytes - 1) / sectionTargetBytes)
	if n < len(e.shards) {
		n = len(e.shards)
	}
	if uint32(n) > e.cfg.NumNodes {
		n = int(e.cfg.NumNodes)
	}
	return (e.cfg.NumNodes + uint32(n) - 1) / uint32(n)
}

// fullPlan is the section plan of a full checkpoint: [0, numNodes) tiled
// into sections of nps nodes (the last one shorter).
func (e *Engine) fullPlan(nps uint32) []nodeRun {
	plan := make([]nodeRun, 0, (e.cfg.NumNodes+nps-1)/nps)
	for start := uint64(0); start < uint64(e.cfg.NumNodes); start += uint64(nps) {
		count := uint64(nps)
		if rest := uint64(e.cfg.NumNodes) - start; count > rest {
			count = rest
		}
		plan = append(plan, nodeRun{start: uint32(start), count: int(count)})
	}
	return plan
}

// deltaPlan is the section plan of a delta checkpoint over the sorted
// dirty ids: one section per run of consecutive ids, cut wherever a full
// checkpoint's tiling cuts — so the plan of an all-dirty delta IS the full
// plan. Slots sit in id order in the delta buffer.
func deltaPlan(ids []uint32, nps uint32, slotSize int) []nodeRun {
	var plan []nodeRun
	for i, id := range ids {
		if n := len(plan); n > 0 && id == ids[i-1]+1 && id%nps != 0 {
			plan[n-1].count++
			continue
		}
		plan = append(plan, nodeRun{start: id, count: 1, off: i * slotSize})
	}
	return plan
}

// checkpointSize is the exact byte length of a checkpoint with the given
// meta length and section count carrying nodes slots of slotSize bytes:
// the layout is fully determined by the header, the meta blob and the
// section plan.
func checkpointSize(metaLen, sections int, nodes, slotSize int64) int64 {
	return int64(4+checkpointHeaderLen+footerTrailerLen) + int64(metaLen) +
		int64(sections)*int64(sectionHeaderLen+footerEntryLen) + nodes*slotSize
}

// getSectionBuf returns a pooled payload buffer of at least n bytes.
func (e *Engine) getSectionBuf(n int) []byte {
	if p, _ := e.ckptBuf.Get().(*[]byte); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

func (e *Engine) putSectionBuf(b []byte) {
	e.ckptBuf.Put(&b)
}

// WriteCheckpoint writes the engine's full sketch state as a checkpoint.
// The quiesce lock is held only to drain buffered updates and seal the
// snapshot (RAM mode: shard-at-a-time slab copy into reusable arenas; disk
// mode: installing the copy-on-write capture), then released — the
// sections are encoded by a worker pool and streamed to w while ingestion
// continues, so the ingest stall is bounded by drain + O(slab copy)
// (reported in Stats.CheckpointStallNanos), not by writer bandwidth. The
// checkpoint is an exact cut: it contains every update whose ingest call
// returned before WriteCheckpoint began and none accepted after the seal.
// Concurrent WriteCheckpoint/MergeCheckpoint calls are serialized.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	cs, err := e.SealCheckpoint()
	if err != nil {
		return err
	}
	defer cs.Close()
	if err := cs.StreamTo(w); err != nil {
		return err
	}
	// The stream succeeded, so every record up to the covered LSN is
	// redundant with the checkpoint — segment truncation is what turns
	// "continuous durability" into bounded log growth. Callers handing in
	// a writer whose durability lags the return (a network peer, an
	// unsynced file) should prefer WriteCheckpointFile or the
	// SealCheckpoint/StreamTo pair, which never truncates.
	e.truncateWAL(cs.walLSN)
	return nil
}

// truncateWAL drops WAL segments wholly covered by a checkpoint at lsn.
// Best-effort: a truncation failure never fails the checkpoint that
// triggered it (the log is merely longer than necessary).
func (e *Engine) truncateWAL(lsn uint64) {
	if e.log == nil || lsn == 0 {
		return
	}
	if err := e.log.Truncate(lsn); err != nil && !errors.Is(err, wal.ErrClosed) {
		e.setErr(fmt.Errorf("core: truncating wal at %d: %w", lsn, err))
	}
}

// WriteCheckpointFile writes a checkpoint to path with crash-safe
// ordering: stream to a temporary file in the same directory, fsync it,
// rename over path, and only then truncate the WAL. A crash anywhere in
// the sequence leaves either the old checkpoint plus the full log or the
// new checkpoint plus the (possibly already shortened) log — never a
// state that cannot recover.
func (e *Engine) WriteCheckpointFile(path string) error {
	cs, err := e.SealCheckpoint()
	if err != nil {
		return err
	}
	defer cs.Close()
	if err := cs.WriteFile(path); err != nil {
		return err
	}
	e.truncateWAL(cs.walLSN)
	return nil
}

// TruncateWALThrough drops WAL segments wholly covered by lsn.
// Best-effort, like the truncation WriteCheckpointFile performs. Call it
// only once state covering lsn is durably on disk — for the delta chain
// that means a *full* checkpoint file landed (or CompactCheckpoints
// folded the chain into one): a delta file alone never licenses
// truncation, because the log past the base is what recovers a lost or
// corrupt delta.
func (e *Engine) TruncateWALThrough(lsn uint64) { e.truncateWAL(lsn) }

// CheckpointSnapshot is a sealed, consistent cut of an engine's sketch
// state, ready to stream with StreamTo. Sealing is the only phase that
// excludes ingestion; multi-engine structures seal every engine back to
// back under one exclusion window and only then stream, so the combined
// checkpoint is a single cut. The snapshot holds the engine's checkpoint
// mutex until Close, which must always be called (usually deferred);
// StreamTo may be called at most once.
type CheckpointSnapshot struct {
	e        *Engine
	updates  uint64
	walLSN   uint64    // last WAL LSN the cut covers (0 with the WAL off)
	meta     []byte    // chain envelope + caller metadata sealed with the cut
	sections []nodeRun // the section plan: fullPlan, or deltaPlan over the dirty ids
	snap     *ckptSnap // non-nil iff disk mode full checkpoint
	written  bool
	closed   bool

	// Chain identity (delta.go): ckptID is the id this seal minted. For a
	// delta snapshot, baseID names the base checkpoint it chains onto (0
	// for a full one) and deltaBuf holds the plan's slots, materialized at
	// seal time under the quiesce lock (a delta is small by construction,
	// so no copy-on-write machinery is needed to stream it with ingestion
	// live).
	ckptID   uint64
	baseID   uint64
	deltaBuf []byte
}

// SealCheckpoint drains buffered updates and seals a snapshot of the
// current sketch state, excluding ingestion only for that long (the
// drain + seal duration lands in Stats.CheckpointStallNanos). The caller
// must Close the returned snapshot, after streaming it with StreamTo.
func (e *Engine) SealCheckpoint() (*CheckpointSnapshot, error) {
	return e.SealCheckpointSince(0)
}

// SealCheckpointSince seals a snapshot that, when possible, is a sparse
// delta against the checkpoint this engine previously sealed with id
// baseID: only the nodes dirtied since that seal are included, and the
// consumer chains it onto its copy of the base with ApplyDeltaCheckpoint.
// The seal falls back to a full checkpoint — transparently; inspect
// IsDelta — when baseID is 0 or unknown (not this engine's lineage, or
// older than the retained seal history), when delta checkpoints are
// disabled, or when the dirty fraction exceeds
// Config.DeltaCheckpointThreshold. Delta snapshots never truncate the
// WAL, whatever path writes them: the log remains the recovery truth past
// the base, so a lost or corrupt delta file degrades to replay, never to
// data loss.
func (e *Engine) SealCheckpointSince(baseID uint64) (*CheckpointSnapshot, error) {
	e.ckptMu.Lock()
	cs, err := e.sealCheckpointLocked(baseID)
	if err != nil {
		e.ckptMu.Unlock()
		return nil, err
	}
	return cs, nil
}

func (e *Engine) sealCheckpointLocked(baseID uint64) (*CheckpointSnapshot, error) {
	stallStart := time.Now()
	e.quiesce.Lock()
	if e.closed.Load() {
		e.quiesce.Unlock()
		return nil, ErrClosed
	}
	if err := e.drainLocked(); err != nil {
		e.quiesce.Unlock()
		return nil, err
	}
	cs := &CheckpointSnapshot{e: e, updates: e.updates.Load()}
	// Both reads happen under the quiesce write lock after the drain:
	// every WAL append belongs to an ingest call that also finished its
	// buffer insert (same read-lock hold), so the drained sketch state
	// covers exactly the LSNs up to this tail; and the meta supplier
	// observes precisely the committed-gate state of the same cut. A
	// WAL-less engine restored from a checkpoint still covers the restored
	// position and meta — propagating both is what lets CompactCheckpoints
	// fold a chain into a full checkpoint that carries the tip's WAL
	// coverage and gate snapshot.
	cs.walLSN = e.restoredWALPos
	if e.log != nil {
		cs.walLSN = e.log.TailLSN()
	}
	user := e.restoredMeta
	if e.ckptMeta != nil {
		user = e.ckptMeta()
	}
	// Every seal advances the chain: capture and reset the dirty-since-seal
	// vectors into the seal history and mint the new state id, full or not —
	// a full checkpoint is as valid a delta base as any.
	cs.ckptID = e.mintSealID(cs.walLSN)
	nps := e.sectionNodes()
	if ids, baseLSN, ok := e.planDelta(baseID, cs.ckptID); ok {
		cs.baseID = baseID
		cs.meta = encodeMetaEnvelope(e.chainTag, cs.ckptID, baseID, baseLSN, user)
		cs.sections = deltaPlan(ids, nps, e.slotSize)
		if err := e.materializeDelta(cs); err != nil {
			e.quiesce.Unlock()
			return nil, err
		}
		e.quiesce.Unlock()
		e.lastCkptStall.Store(int64(time.Since(stallStart)))
		return cs, nil
	}
	cs.meta = encodeMetaEnvelope(e.chainTag, cs.ckptID, 0, 0, user)
	cs.sections = e.fullPlan(nps)
	if e.store == nil {
		if err := e.sealSlabs(); err != nil {
			e.quiesce.Unlock()
			return nil, err
		}
	} else {
		// Make the device bytes the seal-time truth: spill every dirty
		// cached group now (bounded by CacheBytes, so the stall stays
		// drain + O(cache spill)), then install the copy-on-write capture.
		// From here on the section scanner reads the device only; cached
		// mutations stay invisible to it until a write-back, and the
		// cache's write barrier deposits each group's pre-image into the
		// capture before that write-back changes device bytes.
		if e.cache != nil {
			if err := e.cache.WriteBackAll(); err != nil {
				e.quiesce.Unlock()
				return nil, fmt.Errorf("core: sealing write-back cache: %w", err)
			}
		}
		budget := e.cowBudget
		if budget == 0 {
			budget = checkpointCOWBudget
		}
		cs.snap = newCkptSnap(len(cs.sections), nps, budget)
		e.snap.Store(cs.snap)
		if e.cache != nil {
			snap := cs.snap
			slot := e.slotSize
			e.cache.SetWriteBarrier(&diskstore.WriteBarrier{
				NeedPreImage: snap.needsPreImage,
				Deposit: func(start uint32, count int, pre []byte) {
					for j := 0; j < count; j++ {
						snap.preserve(start+uint32(j), pre[j*slot:(j+1)*slot])
					}
				},
			})
		}
	}
	e.quiesce.Unlock()
	e.lastCkptStall.Store(int64(time.Since(stallStart)))
	return cs, nil
}

// Updates returns the number of stream updates in the sealed cut — the
// checkpoint's position in the stream. Networked shippers put it in
// response metadata so an aggregator can account for every accepted
// update across its workers.
func (cs *CheckpointSnapshot) Updates() uint64 { return cs.updates }

// Size returns the exact byte length StreamTo will produce (see
// checkpointSize), so a server can emit a length-prefixed frame or
// Content-Length and stream the checkpoint directly, without buffering it
// first.
func (cs *CheckpointSnapshot) Size() int64 {
	return checkpointSize(len(cs.meta), len(cs.sections), int64(cs.Nodes()), int64(cs.e.slotSize))
}

// WALPos returns the last WAL LSN the sealed cut covers.
func (cs *CheckpointSnapshot) WALPos() uint64 { return cs.walLSN }

// ID returns the chain id this seal minted: pass it back as the `since`
// of a later SealCheckpointSince to receive a delta against this state.
func (cs *CheckpointSnapshot) ID() uint64 { return cs.ckptID }

// BaseID returns the chain id of the base checkpoint a delta snapshot
// chains onto (0 for a full checkpoint).
func (cs *CheckpointSnapshot) BaseID() uint64 { return cs.baseID }

// IsDelta reports whether the seal produced a sparse delta (nodes dirtied
// since the base) rather than a full checkpoint.
func (cs *CheckpointSnapshot) IsDelta() bool { return cs.baseID != 0 }

// Nodes returns how many node slots the snapshot carries: the dirty-node
// count for a delta, the whole universe for a full checkpoint.
func (cs *CheckpointSnapshot) Nodes() int {
	n := 0
	for _, run := range cs.sections {
		n += run.count
	}
	return n
}

// StreamTo streams the sealed snapshot to w; ingestion is live throughout.
func (cs *CheckpointSnapshot) StreamTo(w io.Writer) error {
	if cs.closed || cs.written {
		return errors.New("core: checkpoint snapshot already streamed or closed")
	}
	cs.written = true
	if err := cs.e.streamCheckpoint(w, cs); err != nil {
		return err
	}
	if cs.IsDelta() {
		cs.e.deltaCkpts.Add(1)
		cs.e.deltaCkptBytes.Add(uint64(cs.Size()))
	} else {
		cs.e.fullCkptBytes.Add(uint64(cs.Size()))
	}
	return nil
}

// WriteFile streams the snapshot to path with crash-safe ordering (stream
// to a same-directory temporary file, fsync, rename over path) and —
// unlike WriteCheckpointFile — never truncates the WAL: chain file
// management and the decision of when the log may be shortened belong to
// the caller (a delta never licenses truncation; see TruncateWALThrough
// for the full-checkpoint case).
func (cs *CheckpointSnapshot) WriteFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := cs.StreamTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Close releases the snapshot: the disk-mode capture is retired (waking
// any worker blocked on its pre-image budget) and the engine's checkpoint
// mutex is released. Idempotent.
func (cs *CheckpointSnapshot) Close() {
	if cs.closed {
		return
	}
	cs.closed = true
	if cs.snap != nil {
		if cs.e.cache != nil {
			cs.e.cache.SetWriteBarrier(nil)
		}
		cs.e.snap.Store(nil)
		cs.snap.finish()
	}
	cs.e.ckptMu.Unlock()
}

// sealSlabs copies every shard's live slab into the engine's snapshot
// arenas (allocated once, reused by every later checkpoint). Caller holds
// the quiesce write lock with the workers idle.
func (e *Engine) sealSlabs() error {
	if e.snapSlabs == nil {
		e.snapSlabs = make([]*cubesketch.Slab, len(e.shards))
		for s, sh := range e.shards {
			e.snapSlabs[s] = e.newSlab(sh.slab.Nodes())
		}
	}
	for s, sh := range e.shards {
		if err := e.snapSlabs[s].CopyFrom(sh.slab); err != nil {
			return fmt.Errorf("core: sealing shard %d: %w", s, err)
		}
	}
	return nil
}

// newSlab returns an empty slab of this engine's geometry: the seal
// arenas, and the one-node scratch slabs that validate foreign slot bytes
// before any live state is touched.
func (e *Engine) newSlab(nodes int) *cubesketch.Slab {
	return cubesketch.NewSlab(nodes, e.vecLen, e.cfg.Columns, e.roundSeeds)
}

// appendFooterEntry and appendFooterTrailer build the footer. The writer
// emits it after the last section; the streaming reader rebuilds it from
// the sections it read and compares.
func appendFooterEntry(footer []byte, start uint32, count int, off uint64) []byte {
	footer = binary.LittleEndian.AppendUint32(footer, start)
	footer = binary.LittleEndian.AppendUint32(footer, uint32(count))
	return binary.LittleEndian.AppendUint64(footer, off)
}

func appendFooterTrailer(footer []byte, footerOff uint64, sections int) []byte {
	footer = binary.LittleEndian.AppendUint64(footer, footerOff)
	footer = binary.LittleEndian.AppendUint32(footer, uint32(sections))
	return append(footer, footerMagic[:]...)
}

// streamCheckpoint writes the sealed snapshot, full or delta: header and
// meta, then the plan's sections — encoded across a worker pool (one
// goroutine per shard worker, work-stealing over sections) and written to
// w in order — then the footer. Runs without the quiesce lock; ingestion
// is live throughout.
func (e *Engine) streamCheckpoint(w io.Writer, cs *CheckpointSnapshot) error {
	plan := cs.sections
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(checkpointMagic[:]); err != nil {
		return err
	}
	var hdr [checkpointHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], e.cfg.NumNodes)
	binary.LittleEndian.PutUint64(hdr[4:], e.cfg.Seed)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(e.cfg.Columns))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(e.cfg.Rounds))
	binary.LittleEndian.PutUint64(hdr[20:], cs.updates)
	binary.LittleEndian.PutUint32(hdr[28:], uint32(len(plan)))
	binary.LittleEndian.PutUint64(hdr[32:], cs.walLSN)
	binary.LittleEndian.PutUint32(hdr[40:], uint32(len(cs.meta)))
	binary.LittleEndian.PutUint32(hdr[44:], crc32.Checksum(cs.meta, crcTable))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.Write(cs.meta); err != nil {
		return err
	}

	workers := len(e.shards)
	if workers > len(plan) {
		workers = len(plan)
	}
	type encoded struct {
		payload []byte
		crc     uint32
		err     error
	}
	results := make([]encoded, len(plan))
	done := make([]chan struct{}, len(plan))
	for i := range done {
		done[i] = make(chan struct{})
	}
	// sem bounds encoded-but-unwritten sections so memory stays
	// O(workers × section), not O(checkpoint). Acquired before claiming a
	// section index: a claimed section therefore always holds a token and
	// runs to completion, so the in-order writer below can never wait on a
	// section whose worker is blocked here.
	sem := make(chan struct{}, workers+1)
	var next atomic.Int64
	for wk := 0; wk < workers; wk++ {
		go func() {
			for {
				sem <- struct{}{}
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					<-sem
					return
				}
				payload := e.getSectionBuf(plan[i].count * e.slotSize)
				err := e.encodeSection(i, plan[i], payload, cs)
				results[i] = encoded{payload: payload, crc: crc32.Checksum(payload, crcTable), err: err}
				close(done[i])
			}
		}()
	}

	footer := make([]byte, 0, len(plan)*footerEntryLen+footerTrailerLen)
	off := uint64(4+checkpointHeaderLen) + uint64(len(cs.meta))
	var firstErr error
	for i, run := range plan {
		<-done[i]
		res := results[i]
		if firstErr == nil && res.err != nil {
			firstErr = res.err
		}
		if firstErr == nil {
			var sh [sectionHeaderLen]byte
			binary.LittleEndian.PutUint32(sh[0:], run.start)
			binary.LittleEndian.PutUint32(sh[4:], uint32(run.count))
			binary.LittleEndian.PutUint64(sh[8:], uint64(len(res.payload)))
			binary.LittleEndian.PutUint32(sh[16:], res.crc)
			footer = appendFooterEntry(footer, run.start, run.count, off)
			if _, err := bw.Write(sh[:]); err != nil {
				firstErr = err
			} else if _, err := bw.Write(res.payload); err != nil {
				firstErr = err
			}
			off += sectionHeaderLen + uint64(len(res.payload))
		}
		if res.payload != nil {
			e.putSectionBuf(res.payload)
		}
		<-sem
	}
	if firstErr != nil {
		return firstErr
	}
	if _, err := bw.Write(appendFooterTrailer(footer, off, len(plan))); err != nil {
		return err
	}
	return bw.Flush()
}

// encodeSection fills payload with the serialized slots of section sec of
// the snapshot's plan. A delta copies the run out of the buffer
// materializeDelta filled under the seal; a full checkpoint marshals out
// of the sealed snapshot slabs in RAM mode, and in disk mode scans the
// store with coalesced range reads and then substitutes any copy-on-write
// pre-images, yielding the drain-time cut.
func (e *Engine) encodeSection(sec int, run nodeRun, payload []byte, cs *CheckpointSnapshot) error {
	if cs.IsDelta() {
		copy(payload, cs.deltaBuf[run.off:])
		return nil
	}
	start, count := run.start, run.count
	if e.store == nil {
		k := uint32(len(e.shards))
		for j := 0; j < count; j++ {
			node := start + uint32(j)
			e.snapSlabs[node%k].MarshalNode(int(node/k), payload[j*e.slotSize:(j+1)*e.slotSize])
		}
		return nil
	}
	chunkSlots := e.cfg.QueryScanBytes / e.slotSize
	if chunkSlots < 1 {
		chunkSlots = 1
	}
	for lo := 0; lo < count; lo += chunkSlots {
		hi := lo + chunkSlots
		if hi > count {
			hi = count
		}
		if err := e.store.ReadRange(start+uint32(lo), hi-lo, payload[lo*e.slotSize:hi*e.slotSize]); err != nil {
			return fmt.Errorf("core: checkpoint scan of nodes [%d,%d): %w", int(start)+lo, int(start)+hi, err)
		}
	}
	cs.snap.capture(sec, start, count, payload, e.slotSize)
	return nil
}

// checkpointHeader is the decoded fixed header.
type checkpointHeader struct {
	numNodes uint32
	seed     uint64
	columns  int
	rounds   int
	updates  uint64
	sections int
	walLSN   uint64
	metaLen  int
}

// asBufReader reuses r when it already buffers (the extension container
// shares one bufio.Reader across engine streams; double-buffering would
// over-read past a stream's end).
func asBufReader(r io.Reader) *bufio.Reader {
	if br, ok := r.(*bufio.Reader); ok {
		return br
	}
	return bufio.NewReaderSize(r, 1<<16)
}

// readCheckpointHeader reads everything ahead of the sections — magic,
// fixed header, meta blob — and returns the header with the decoded chain
// envelope; env.baseID != 0 is what marks the stream a delta. The meta
// blob is read incrementally, so a lying metaLen costs no more memory than
// the bytes the stream actually holds.
func readCheckpointHeader(br *bufio.Reader) (checkpointHeader, metaEnvelope, error) {
	fail := func(err error) (checkpointHeader, metaEnvelope, error) {
		return checkpointHeader{}, metaEnvelope{}, err
	}
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return fail(fmt.Errorf("core: reading checkpoint magic: %w", err))
	}
	if m != checkpointMagic {
		return fail(fmt.Errorf("%w: not a checkpoint (magic %q)", ErrCorruptCheckpoint, m[:]))
	}
	var hdr [checkpointHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fail(fmt.Errorf("core: reading checkpoint header: %w", err))
	}
	h := checkpointHeader{
		numNodes: binary.LittleEndian.Uint32(hdr[0:]),
		seed:     binary.LittleEndian.Uint64(hdr[4:]),
		columns:  int(binary.LittleEndian.Uint32(hdr[12:])),
		rounds:   int(binary.LittleEndian.Uint32(hdr[16:])),
		updates:  binary.LittleEndian.Uint64(hdr[20:]),
		sections: int(binary.LittleEndian.Uint32(hdr[28:])),
		walLSN:   binary.LittleEndian.Uint64(hdr[32:]),
		metaLen:  int(binary.LittleEndian.Uint32(hdr[40:])),
	}
	if h.numNodes < 2 || h.columns < 1 || h.rounds < 1 {
		return fail(fmt.Errorf("%w: header parameters V=%d cols=%d rounds=%d",
			ErrCorruptCheckpoint, h.numNodes, h.columns, h.rounds))
	}
	if h.metaLen > maxCheckpointMeta {
		return fail(fmt.Errorf("%w: %d-byte meta blob", ErrCorruptCheckpoint, h.metaLen))
	}
	meta, err := io.ReadAll(io.LimitReader(br, int64(h.metaLen)))
	if err == nil && len(meta) < h.metaLen {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return fail(fmt.Errorf("core: checkpoint truncated in meta blob: %w", err))
	}
	if crc32.Checksum(meta, crcTable) != binary.LittleEndian.Uint32(hdr[44:]) {
		return fail(fmt.Errorf("%w: meta blob checksum mismatch", ErrCorruptCheckpoint))
	}
	env, ok := parseMetaEnvelope(meta)
	if !ok {
		return fail(fmt.Errorf("%w: meta blob is not a chain envelope", ErrCorruptCheckpoint))
	}
	// A delta may legitimately carry zero sections (nothing dirtied since
	// the base); a full checkpoint must cover the node universe.
	minSections := 1
	if env.baseID != 0 {
		minSections = 0
	}
	if h.sections < minSections || uint32(h.sections) > h.numNodes {
		return fail(fmt.Errorf("%w: %d sections for %d nodes", ErrCorruptCheckpoint, h.sections, h.numNodes))
	}
	return h, env, nil
}

// sectionHeader is one decoded inline section header.
type sectionHeader struct {
	start   uint32
	count   int
	payload int
	crc     uint32
}

// parseSectionHeader sanity-checks one inline section header against the
// engine's geometry and the coverage cursor: a section starts at or past
// the cursor (ascending, non-overlapping), exactly at it when contiguous
// is set (a full checkpoint's tiling, or the footer entry that located
// the section).
func (e *Engine) parseSectionHeader(sh []byte, cursor uint32, contiguous bool) (sectionHeader, error) {
	s := sectionHeader{
		start:   binary.LittleEndian.Uint32(sh[0:]),
		count:   int(binary.LittleEndian.Uint32(sh[4:])),
		payload: int(binary.LittleEndian.Uint64(sh[8:])),
		crc:     binary.LittleEndian.Uint32(sh[16:]),
	}
	if s.start < cursor || (contiguous && s.start != cursor) || s.start >= e.cfg.NumNodes || s.count <= 0 ||
		uint32(s.count) > e.cfg.NumNodes-s.start || s.payload != s.count*e.slotSize {
		return sectionHeader{}, fmt.Errorf("%w: section (start=%d count=%d payload=%d) at node cursor %d",
			ErrCorruptCheckpoint, s.start, s.count, s.payload, cursor)
	}
	return s, nil
}

// decodeSection installs a verified section payload into the engine's
// sketch state by replacement — restore and delta apply alike: RAM mode
// unmarshals each node into its owning shard's slab (validating every
// round header), disk mode writes the whole range with one coalesced
// device access. Safe to call concurrently for disjoint sections.
func (e *Engine) decodeSection(start uint32, count int, payload []byte) error {
	if e.store != nil {
		if err := e.store.WriteRange(start, count, payload); err != nil {
			return fmt.Errorf("core: restoring nodes [%d,%d): %w", start, int(start)+count, err)
		}
		return nil
	}
	k := uint32(len(e.shards))
	for j := 0; j < count; j++ {
		node := start + uint32(j)
		sh := e.shards[node%k]
		if err := sh.slab.UnmarshalNode(int(node/k), payload[j*e.slotSize:(j+1)*e.slotSize]); err != nil {
			return fmt.Errorf("%w: slot of node %d: %v", ErrCorruptCheckpoint, node, err)
		}
	}
	return nil
}

// readSections is the one loop that reads checkpoint sections from a
// stream, for restore, merge and delta apply. Each section is checked
// against the engine's geometry and the coverage cursor, read whole and
// CRC-verified before visit sees it (the payload is only valid during the
// call). A full checkpoint's sections must tile [0, numNodes); a delta's
// only ascend. The footer is rebuilt from the sections read and the
// stream's must equal it byte for byte — so a stream that restores here
// also opens with OpenCheckpoint once saved to a file — which leaves the
// reader positioned exactly past the checkpoint: concatenated streams, as
// the extension container writes, stay readable.
func (e *Engine) readSections(br *bufio.Reader, h checkpointHeader, delta bool, visit func(start uint32, count int, payload []byte) error) error {
	want := make([]byte, 0, h.sections*footerEntryLen+footerTrailerLen)
	off := uint64(4+checkpointHeaderLen) + uint64(h.metaLen)
	cursor := uint32(0)
	for s := 0; s < h.sections; s++ {
		var shdr [sectionHeaderLen]byte
		if _, err := io.ReadFull(br, shdr[:]); err != nil {
			return fmt.Errorf("core: checkpoint truncated at section header (node %d): %w", cursor, err)
		}
		sec, err := e.parseSectionHeader(shdr[:], cursor, !delta)
		if err != nil {
			return err
		}
		payload := e.getSectionBuf(sec.payload)
		if _, err = io.ReadFull(br, payload); err != nil {
			err = fmt.Errorf("core: checkpoint truncated in section at node %d: %w", sec.start, err)
		} else if crc32.Checksum(payload, crcTable) != sec.crc {
			err = fmt.Errorf("%w: checksum mismatch in section at node %d", ErrCorruptCheckpoint, sec.start)
		} else {
			err = visit(sec.start, sec.count, payload)
		}
		e.putSectionBuf(payload)
		if err != nil {
			return err
		}
		want = appendFooterEntry(want, sec.start, sec.count, off)
		off += sectionHeaderLen + uint64(sec.payload)
		cursor = sec.start + uint32(sec.count)
	}
	if !delta && cursor != e.cfg.NumNodes {
		return fmt.Errorf("%w: sections cover %d of %d nodes", ErrCorruptCheckpoint, cursor, e.cfg.NumNodes)
	}
	want = appendFooterTrailer(want, off, h.sections)
	got := make([]byte, len(want))
	if _, err := io.ReadFull(br, got); err != nil {
		return fmt.Errorf("core: checkpoint truncated in footer: %w", err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%w: footer does not match the sections read", ErrCorruptCheckpoint)
	}
	return nil
}

// configFromHeader overwrites cfg's sketch parameters with the
// checkpoint's.
func configFromHeader(cfg Config, h checkpointHeader) Config {
	cfg.NumNodes = h.numNodes
	cfg.Seed = h.seed
	cfg.Columns = h.columns
	cfg.Rounds = h.rounds
	return cfg
}

// ReadCheckpoint restores an engine from a full checkpoint stream, reading
// front to back. The provided config controls deployment choices (workers,
// buffering, disk placement); its sketch parameters are overwritten by the
// checkpoint's. For a seekable file use OpenCheckpoint, which decodes
// sections in parallel.
func ReadCheckpoint(r io.Reader, cfg Config) (*Engine, error) {
	br := asBufReader(r)
	h, env, err := readCheckpointHeader(br)
	if err != nil {
		return nil, err
	}
	if env.baseID != 0 {
		return nil, fmt.Errorf("%w: cannot restore from a delta stream", ErrDeltaCheckpoint)
	}
	e, err := NewEngine(configFromHeader(cfg, h))
	if err != nil {
		return nil, err
	}
	e.adoptChainMeta(h, env)
	if err := e.readSections(br, h, false, e.decodeSection); err != nil {
		e.Close()
		return nil, err
	}
	e.updates.Store(h.updates)
	return e, nil
}

// OpenCheckpoint restores an engine from a full checkpoint file, decoding
// sections in parallel across the shard worker pool via the footer.
func OpenCheckpoint(path string, cfg Config) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ReadCheckpointAt(f, st.Size(), cfg)
}

// ReadCheckpointAt restores an engine from a random-access full
// checkpoint: the footer locates every section, and decode fans out one
// goroutine per shard worker over whole sections (disk mode writes each
// with a single coalesced range access). Header, meta and footer fully
// determine the layout, so the file's size and every footer entry are
// checked against it before anything is allocated by the header's claim.
func ReadCheckpointAt(ra io.ReaderAt, size int64, cfg Config) (*Engine, error) {
	h, env, err := readCheckpointHeader(bufio.NewReader(io.NewSectionReader(ra, 0, size)))
	if err != nil {
		return nil, err
	}
	if env.baseID != 0 {
		return nil, fmt.Errorf("%w: cannot restore from a delta file", ErrDeltaCheckpoint)
	}
	// The divisions keep a crafted header from overflowing the products.
	sketch := int64(cubesketch.SerializedSize(configFromHeader(cfg, h).VectorLen(), h.columns))
	if sketch > size/int64(h.rounds) || sketch*int64(h.rounds) > size/int64(h.numNodes) {
		return nil, fmt.Errorf("%w: %d bytes cannot hold %d nodes", ErrCorruptCheckpoint, size, h.numNodes)
	}
	slotBytes := sketch * int64(h.rounds)
	if want := checkpointSize(h.metaLen, h.sections, int64(h.numNodes), slotBytes); size != want {
		return nil, fmt.Errorf("%w: %d bytes, header describes %d", ErrCorruptCheckpoint, size, want)
	}
	footer := make([]byte, h.sections*footerEntryLen+footerTrailerLen)
	if _, err := ra.ReadAt(footer, size-int64(len(footer))); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint footer: %w", err)
	}
	// Validate the footer BEFORE fanning out: contiguous sections from node
	// 0 to numNodes, each at the offset the layout puts it. A corrupt footer
	// with overlapping entries must never reach the decode workers — they
	// install disjoint node ranges concurrently and overlap would be a data
	// race, not just a bad decode. The cursor arithmetic runs in uint64 so a
	// crafted count cannot wrap a uint32 cursor back into covered territory.
	cursor := uint64(0)
	off := uint64(4+checkpointHeaderLen) + uint64(h.metaLen)
	for i := 0; i < h.sections; i++ {
		entry := footer[i*footerEntryLen:]
		count := uint64(binary.LittleEndian.Uint32(entry[4:]))
		if uint64(binary.LittleEndian.Uint32(entry[0:])) != cursor || count == 0 ||
			cursor+count > uint64(h.numNodes) || binary.LittleEndian.Uint64(entry[8:]) != off {
			return nil, fmt.Errorf("%w: footer entry %d does not continue the tiling at node %d", ErrCorruptCheckpoint, i, cursor)
		}
		cursor += count
		off += sectionHeaderLen + count*uint64(slotBytes)
	}
	if cursor != uint64(h.numNodes) {
		return nil, fmt.Errorf("%w: sections cover %d of %d nodes", ErrCorruptCheckpoint, cursor, h.numNodes)
	}
	if !bytes.Equal(footer[h.sections*footerEntryLen:], appendFooterTrailer(nil, off, h.sections)) {
		return nil, fmt.Errorf("%w: bad footer trailer", ErrCorruptCheckpoint)
	}

	e, err := NewEngine(configFromHeader(cfg, h))
	if err != nil {
		return nil, err
	}
	e.adoptChainMeta(h, env)
	workers := len(e.shards)
	if workers > h.sections {
		workers = h.sections
	}
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(slot *error) {
			defer wg.Done()
			var payload []byte
			for {
				i := int(next.Add(1)) - 1
				if i >= h.sections || *slot != nil {
					if payload != nil {
						e.putSectionBuf(payload)
					}
					return
				}
				entry := footer[i*footerEntryLen:]
				start := binary.LittleEndian.Uint32(entry[0:])
				off := int64(binary.LittleEndian.Uint64(entry[8:]))
				var shdr [sectionHeaderLen]byte
				if _, err := ra.ReadAt(shdr[:], off); err != nil {
					*slot = fmt.Errorf("core: reading section header at node %d: %w", start, err)
					continue
				}
				sec, err := e.parseSectionHeader(shdr[:], start, true)
				if err != nil {
					*slot = err
					continue
				}
				// The inline count must match the validated footer entry —
				// otherwise a lying section header could widen this worker's
				// range into a neighbour section mid-decode.
				if sec.count != int(binary.LittleEndian.Uint32(entry[4:])) {
					*slot = fmt.Errorf("%w: section at node %d declares %d nodes, footer says %d",
						ErrCorruptCheckpoint, sec.start, sec.count, binary.LittleEndian.Uint32(entry[4:]))
					continue
				}
				if cap(payload) < sec.payload {
					payload = make([]byte, sec.payload)
				}
				payload = payload[:sec.payload]
				if _, err := ra.ReadAt(payload, off+sectionHeaderLen); err != nil {
					*slot = fmt.Errorf("core: reading section at node %d: %w", sec.start, err)
					continue
				}
				if crc32.Checksum(payload, crcTable) != sec.crc {
					*slot = fmt.Errorf("%w: checksum mismatch in section at node %d", ErrCorruptCheckpoint, sec.start)
					continue
				}
				if err := e.decodeSection(sec.start, sec.count, payload); err != nil {
					*slot = err
				}
			}
		}(&errs[wk])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.Close()
			return nil, err
		}
	}
	e.updates.Store(h.updates)
	return e, nil
}

// checkCompatible validates a checkpoint header against the engine's
// parameters for merging.
func (e *Engine) checkCompatible(h checkpointHeader) error {
	if h.numNodes != e.cfg.NumNodes || h.seed != e.cfg.Seed ||
		h.columns != e.cfg.Columns || h.rounds != e.cfg.Rounds {
		return fmt.Errorf("%w: checkpoint (V=%d seed=%#x cols=%d rounds=%d) vs engine (V=%d seed=%#x cols=%d rounds=%d)",
			ErrIncompatibleCheckpoint, h.numNodes, h.seed, h.columns, h.rounds,
			e.cfg.NumNodes, e.cfg.Seed, e.cfg.Columns, e.cfg.Rounds)
	}
	return nil
}

// MergeCheckpoint XORs a checkpoint's sketch state into the live engine:
// the result summarizes the union-as-multiset (symmetric difference of
// edge sets, i.e. the mod-2 sum) of both streams. With disjoint shards of
// one stream — the distributed-ingestion pattern of the paper's
// conclusion — the merged engine answers queries for the whole stream.
//
// The merge streams serialized slots straight into the sketch state with
// zero per-sketch allocations: RAM mode XORs each slot into the owning
// shard's slab through capacity-clamped views (Slab.MergeNodeBinary), and
// disk mode XORs serialized bytes against a coalesced range read of the
// local slots (cubesketch.MergeSerialized) and writes the range back with
// one device access per section. No intermediate Sketch is ever built.
func (e *Engine) MergeCheckpoint(r io.Reader) error {
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
	// The merge reads and writes the store directly, so the cache must be
	// spilled (its dirty state is ahead of the device) and then dropped
	// (the merge makes resident copies stale).
	if e.cache != nil {
		if err := e.cache.Invalidate(); err != nil {
			return fmt.Errorf("core: invalidating write-back cache for merge: %w", err)
		}
	}
	br := asBufReader(r)
	h, env, err := readCheckpointHeader(br)
	if err != nil {
		return err
	}
	// Beyond telling delta from full, the source's envelope and WAL
	// position describe the *remote* worker's chain, log and gate,
	// meaningless to the merging engine: verified with the header, then
	// dropped.
	if env.baseID != 0 {
		return fmt.Errorf("%w: cannot merge a delta stream", ErrDeltaCheckpoint)
	}
	if err := e.checkCompatible(h); err != nil {
		return err
	}
	// A slot equal to the empty-sketch encoding XORs as the identity, so
	// the set of nodes the merge actually changes is exactly the incoming
	// non-empty slots: mark those precisely (dirty for the incremental
	// query, dirtySeal for the delta checkpoint chain), so the next query
	// after a sparse merge runs the delta path over the touched components
	// only.
	empty := e.emptySlotBytes()
	err = e.readSections(br, h, false, func(start uint32, count int, payload []byte) error {
		return e.mergeSectionPayload(start, count, payload, empty)
	})
	if err != nil {
		return err
	}
	e.updates.Add(h.updates)
	e.epoch.Add(1)
	return nil
}

// emptySlotBytes returns the serialized encoding of a node that never
// received an update. It is identical for every node of a given geometry
// (the per-round headers depend only on the engine parameters), which is
// what lets the merge and delta paths recognize no-op slots by byte
// comparison. Allocates; callers are whole-checkpoint operations.
func (e *Engine) emptySlotBytes() []byte {
	buf := make([]byte, e.slotSize)
	e.newSlab(1).MarshalNode(0, buf)
	return buf
}

// mergeSectionPayload XORs one verified section of serialized slots into
// the engine state, skipping (and leaving unmarked) slots equal to the
// empty encoding.
func (e *Engine) mergeSectionPayload(start uint32, count int, incoming, empty []byte) error {
	if e.store == nil {
		k := uint32(len(e.shards))
		for j := 0; j < count; j++ {
			node := start + uint32(j)
			slot := incoming[j*e.slotSize : (j+1)*e.slotSize]
			if bytes.Equal(slot, empty) {
				continue
			}
			e.markChangedNode(node)
			sh := e.shards[node%k]
			if err := sh.slab.MergeNodeBinary(int(node/k), slot); err != nil {
				return fmt.Errorf("%w: merging node %d: %v", ErrCorruptCheckpoint, node, err)
			}
		}
		return nil
	}
	local := e.getSectionBuf(count * e.slotSize)
	defer e.putSectionBuf(local)
	if err := e.readSlots(start, count, local); err != nil {
		return err
	}
	for j := 0; j < count; j++ {
		if bytes.Equal(incoming[j*e.slotSize:(j+1)*e.slotSize], empty) {
			continue
		}
		e.markChangedNode(start + uint32(j))
		for r := 0; r < e.cfg.Rounds; r++ {
			off := j*e.slotSize + r*e.sketchSize
			if err := cubesketch.MergeSerialized(local[off:off+e.sketchSize], incoming[off:off+e.sketchSize]); err != nil {
				return fmt.Errorf("%w: merging node %d round %d: %v", ErrCorruptCheckpoint, start+uint32(j), r, err)
			}
		}
	}
	if err := e.store.WriteRange(start, count, local); err != nil {
		return fmt.Errorf("core: merge write of nodes [%d,%d): %w", start, int(start)+count, err)
	}
	return nil
}
