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

// Checkpoint format (GZE4):
//
//	magic    [4]byte "GZE4"
//	header   [48]byte:
//	  numNodes     uint32
//	  seed         uint64
//	  columns      uint32
//	  rounds       uint32
//	  updates      uint64
//	  sectionCount uint32
//	  walLSN       uint64 — last WAL LSN covered by this checkpoint (0
//	    with the WAL disabled); Recover replays only records above it,
//	    and a successful checkpoint truncates the log up to it
//	  metaLen      uint32, metaCRC uint32 (CRC-32C of the meta blob)
//	meta     metaLen bytes — opaque caller metadata sealed with the cut
//	  (gzserve stores its ingest-gate snapshot here so at-most-once
//	  state survives a restart together with the data it describes)
//	sections, each:
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
// Sections are contiguous node ranges covering [0, numNodes) in order, so
// both encode and decode fan out across a worker pool: each worker owns
// whole sections, and in disk mode reads or writes its section with
// coalesced range I/O instead of one device access per node. The inline
// section headers make a plain io.Reader stream decodable front to back
// (and self-delimiting, so checkpoints concatenate — the extension
// container format relies on this); the footer lets an io.ReaderAt restore
// (OpenCheckpoint) jump straight to every section in parallel. Checksums
// are per section, so corruption is detected before any state is merged
// and is localized to a node range.
//
// Legacy GZE3 streams (32-byte header, no WAL position, no meta) and
// GZE2 streams (flat numNodes × slotSize slots, no sections, no
// checksums) remain readable and mergeable behind the magic check.
//
// Linearity makes checkpoints composable: because sketches are mergeable,
// a checkpoint written on one machine can be merged into a live engine
// with the same parameters elsewhere (the distributed-partitioning
// direction of the paper's conclusion; see MergeCheckpoint).

var (
	checkpointMagic   = [4]byte{'G', 'Z', 'E', '4'}
	checkpointMagicV3 = [4]byte{'G', 'Z', 'E', '3'}
	checkpointMagicV2 = [4]byte{'G', 'Z', 'E', '2'}
	footerMagic       = [4]byte{'G', 'Z', 'F', '3'}
	// deltaMagic opens a sparse GZD1 delta checkpoint (delta.go): same
	// 48-byte header layout as GZE4, but the sections carry sorted dirty
	// node ids plus their serialized slots instead of dense node ranges.
	deltaMagic = [4]byte{'G', 'Z', 'D', '1'}
)

const (
	checkpointHeaderLenV3 = 32
	checkpointHeaderLen   = 48 // GZE4: V3's 32 + walLSN(8) + metaLen(4) + metaCRC(4)
	// checkpointVersionDelta tags a decoded GZD1 header; delta streams are
	// only consumable by ApplyDeltaCheckpoint, never by restore or merge.
	checkpointVersionDelta = 5
	sectionHeaderLen       = 20
	footerEntryLen         = 16
	footerTrailerLen       = 16
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

// checkpointSections picks the section partition for this engine: sections
// target sectionTargetBytes of payload, with at least one section per
// shard worker so encode and restore fan out.
func (e *Engine) checkpointSections() (nSections int, nodesPerSection uint32) {
	total := int64(e.cfg.NumNodes) * int64(e.slotSize)
	n := int((total + sectionTargetBytes - 1) / sectionTargetBytes)
	if n < len(e.shards) {
		n = len(e.shards)
	}
	if uint32(n) > e.cfg.NumNodes {
		n = int(e.cfg.NumNodes)
	}
	nps := (e.cfg.NumNodes + uint32(n) - 1) / uint32(n)
	return int((e.cfg.NumNodes + nps - 1) / nps), nps
}

// sectionRange returns section i's node range under the nps partition.
func (e *Engine) sectionRange(i int, nps uint32) (start uint32, count int) {
	start = uint32(i) * nps
	count = int(nps)
	if rest := int(e.cfg.NumNodes - start); count > rest {
		count = rest
	}
	return start, count
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

// WriteCheckpoint writes the engine's full sketch state as a GZE3 stream.
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
	e         *Engine
	updates   uint64
	walLSN    uint64 // last WAL LSN the cut covers (0 with the WAL off)
	meta      []byte // chain envelope + caller metadata sealed with the cut
	nSections int
	nps       uint32
	snap      *ckptSnap // non-nil iff disk mode full checkpoint
	written   bool
	closed    bool

	// Chain identity (delta.go): ckptID is the id this seal minted. For a
	// delta snapshot, baseID/baseLSN name the base checkpoint it chains
	// onto, deltaIDs the sorted dirty node ids, and deltaBuf their
	// serialized slots, materialized at seal time under the quiesce lock
	// (a delta is small by construction, so no copy-on-write machinery is
	// needed to stream it with ingestion live).
	ckptID   uint64
	baseID   uint64
	baseLSN  uint64
	delta    bool
	deltaIDs []uint32
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
// GZD1 delta against the checkpoint this engine previously sealed with id
// baseID: only the nodes dirtied since that seal are included, and the
// consumer chains it onto its copy of the base with ApplyDeltaCheckpoint.
// The seal falls back to a full GZE4 checkpoint — transparently; inspect
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
	if ids, baseLSN, ok := e.planDelta(baseID, cs.ckptID); ok {
		cs.delta, cs.baseID, cs.baseLSN = true, baseID, baseLSN
		cs.meta = encodeMetaEnvelope(e.chainTag, cs.ckptID, baseID, baseLSN, user)
		cs.deltaIDs = ids
		if err := e.materializeDelta(cs); err != nil {
			e.quiesce.Unlock()
			return nil, err
		}
		e.quiesce.Unlock()
		e.lastCkptStall.Store(int64(time.Since(stallStart)))
		return cs, nil
	}
	cs.meta = encodeMetaEnvelope(e.chainTag, cs.ckptID, 0, 0, user)
	cs.nSections, cs.nps = e.checkpointSections()
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
		cs.snap = newCkptSnap(cs.nSections, cs.nps, budget)
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

// Size returns the exact byte length StreamTo will produce. The GZE4
// layout is fully determined by the engine parameters, the sealed meta
// blob and the section plan (header + meta + per-section header +
// numNodes fixed-width slots + footer), so a server can emit a
// length-prefixed frame or Content-Length and stream the checkpoint
// directly, without buffering it first.
func (cs *CheckpointSnapshot) Size() int64 {
	e := cs.e
	if cs.delta {
		nSec, _ := deltaSectionPlan(len(cs.deltaIDs), e.slotSize)
		return int64(4+checkpointHeaderLen) + int64(len(cs.meta)) +
			int64(nSec)*int64(sectionHeaderLen) +
			int64(len(cs.deltaIDs))*int64(4+e.slotSize)
	}
	return int64(4+checkpointHeaderLen+footerTrailerLen) + int64(len(cs.meta)) +
		int64(cs.nSections)*int64(sectionHeaderLen+footerEntryLen) +
		int64(e.cfg.NumNodes)*int64(e.slotSize)
}

// WALPos returns the last WAL LSN the sealed cut covers.
func (cs *CheckpointSnapshot) WALPos() uint64 { return cs.walLSN }

// ID returns the chain id this seal minted: pass it back as the `since`
// of a later SealCheckpointSince to receive a delta against this state.
func (cs *CheckpointSnapshot) ID() uint64 { return cs.ckptID }

// BaseID returns the chain id of the base checkpoint a delta snapshot
// chains onto (0 for a full checkpoint).
func (cs *CheckpointSnapshot) BaseID() uint64 { return cs.baseID }

// IsDelta reports whether the seal produced a sparse GZD1 delta (nodes
// dirtied since the base) rather than a full GZE4 checkpoint.
func (cs *CheckpointSnapshot) IsDelta() bool { return cs.delta }

// Nodes returns how many node slots the snapshot carries: the dirty-id
// count for a delta, the whole universe for a full checkpoint.
func (cs *CheckpointSnapshot) Nodes() int {
	if cs.delta {
		return len(cs.deltaIDs)
	}
	return int(cs.e.cfg.NumNodes)
}

// StreamTo streams the sealed snapshot to w; ingestion is live throughout.
func (cs *CheckpointSnapshot) StreamTo(w io.Writer) error {
	if cs.closed || cs.written {
		return errors.New("core: checkpoint snapshot already streamed or closed")
	}
	cs.written = true
	var err error
	if cs.delta {
		err = cs.e.streamDeltaCheckpoint(w, cs)
	} else {
		err = cs.e.streamCheckpoint(w, cs)
	}
	if err == nil {
		if cs.delta {
			cs.e.deltaCkpts.Add(1)
			cs.e.deltaCkptBytes.Add(uint64(cs.Size()))
		} else {
			cs.e.fullCkptBytes.Add(uint64(cs.Size()))
		}
	}
	return err
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
		seeds := make([]uint64, e.cfg.Rounds)
		for r := range seeds {
			seeds[r] = e.roundSeed(r)
		}
		e.snapSlabs = make([]*cubesketch.Slab, len(e.shards))
		for s, sh := range e.shards {
			e.snapSlabs[s] = cubesketch.NewSlab(sh.slab.Nodes(), e.vecLen, e.cfg.Columns, seeds)
		}
	}
	for s, sh := range e.shards {
		if err := e.snapSlabs[s].CopyFrom(sh.slab); err != nil {
			return fmt.Errorf("core: sealing shard %d: %w", s, err)
		}
	}
	return nil
}

// streamCheckpoint encodes the sealed snapshot into sections across a
// worker pool (one goroutine per shard worker, work-stealing over
// sections) and writes them to w in order, followed by the footer. Runs
// without the quiesce lock; ingestion is live throughout.
func (e *Engine) streamCheckpoint(w io.Writer, cs *CheckpointSnapshot) error {
	updates, nSections, nps, snap := cs.updates, cs.nSections, cs.nps, cs.snap
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(checkpointMagic[:]); err != nil {
		return err
	}
	var hdr [checkpointHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], e.cfg.NumNodes)
	binary.LittleEndian.PutUint64(hdr[4:], e.cfg.Seed)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(e.cfg.Columns))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(e.cfg.Rounds))
	binary.LittleEndian.PutUint64(hdr[20:], updates)
	binary.LittleEndian.PutUint32(hdr[28:], uint32(nSections))
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
	if workers > nSections {
		workers = nSections
	}
	type encoded struct {
		payload []byte
		crc     uint32
		err     error
	}
	results := make([]encoded, nSections)
	done := make([]chan struct{}, nSections)
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
				if i >= nSections {
					<-sem
					return
				}
				start, count := e.sectionRange(i, nps)
				payload := e.getSectionBuf(count * e.slotSize)
				err := e.encodeSection(i, start, count, payload, snap)
				results[i] = encoded{payload: payload, crc: crc32.Checksum(payload, crcTable), err: err}
				close(done[i])
			}
		}()
	}

	offsets := make([]uint64, nSections)
	off := uint64(4+checkpointHeaderLen) + uint64(len(cs.meta))
	var firstErr error
	for i := 0; i < nSections; i++ {
		<-done[i]
		res := results[i]
		if firstErr == nil && res.err != nil {
			firstErr = res.err
		}
		if firstErr == nil {
			start, count := e.sectionRange(i, nps)
			var sh [sectionHeaderLen]byte
			binary.LittleEndian.PutUint32(sh[0:], start)
			binary.LittleEndian.PutUint32(sh[4:], uint32(count))
			binary.LittleEndian.PutUint64(sh[8:], uint64(len(res.payload)))
			binary.LittleEndian.PutUint32(sh[16:], res.crc)
			offsets[i] = off
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

	footerOff := off
	var entry [footerEntryLen]byte
	for i := 0; i < nSections; i++ {
		start, count := e.sectionRange(i, nps)
		binary.LittleEndian.PutUint32(entry[0:], start)
		binary.LittleEndian.PutUint32(entry[4:], uint32(count))
		binary.LittleEndian.PutUint64(entry[8:], offsets[i])
		if _, err := bw.Write(entry[:]); err != nil {
			return err
		}
	}
	var trailer [footerTrailerLen]byte
	binary.LittleEndian.PutUint64(trailer[0:], footerOff)
	binary.LittleEndian.PutUint32(trailer[8:], uint32(nSections))
	copy(trailer[12:], footerMagic[:])
	if _, err := bw.Write(trailer[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// encodeSection fills payload with the serialized slots of nodes
// [start, start+count). RAM mode marshals out of the sealed snapshot
// slabs; disk mode scans the store with coalesced range reads and then
// substitutes any copy-on-write pre-images, yielding the drain-time cut.
func (e *Engine) encodeSection(sec int, start uint32, count int, payload []byte, snap *ckptSnap) error {
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
	snap.capture(sec, start, count, payload, e.slotSize)
	return nil
}

// checkpointHeader is the decoded fixed header of any format version.
type checkpointHeader struct {
	version  int // 2, 3 or 4
	numNodes uint32
	seed     uint64
	columns  int
	rounds   int
	updates  uint64
	sections int // GZE3+
	walLSN   uint64
	metaLen  int
	metaCRC  uint32
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

func readCheckpointHeader(br *bufio.Reader) (checkpointHeader, error) {
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return checkpointHeader{}, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	switch m {
	case checkpointMagicV2:
		var hdr [28]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return checkpointHeader{}, fmt.Errorf("core: reading checkpoint header: %w", err)
		}
		return checkpointHeader{
			version:  2,
			numNodes: binary.LittleEndian.Uint32(hdr[0:]),
			seed:     binary.LittleEndian.Uint64(hdr[4:]),
			columns:  int(binary.LittleEndian.Uint32(hdr[12:])),
			rounds:   int(binary.LittleEndian.Uint32(hdr[16:])),
			updates:  binary.LittleEndian.Uint64(hdr[20:]),
		}, nil
	case checkpointMagicV3, checkpointMagic, deltaMagic:
		n := checkpointHeaderLenV3
		version := 3
		if m != checkpointMagicV3 {
			n = checkpointHeaderLen
			version = 4
			if m == deltaMagic {
				version = checkpointVersionDelta
			}
		}
		var hdr [checkpointHeaderLen]byte
		if _, err := io.ReadFull(br, hdr[:n]); err != nil {
			return checkpointHeader{}, fmt.Errorf("core: reading checkpoint header: %w", err)
		}
		h := checkpointHeader{
			version:  version,
			numNodes: binary.LittleEndian.Uint32(hdr[0:]),
			seed:     binary.LittleEndian.Uint64(hdr[4:]),
			columns:  int(binary.LittleEndian.Uint32(hdr[12:])),
			rounds:   int(binary.LittleEndian.Uint32(hdr[16:])),
			updates:  binary.LittleEndian.Uint64(hdr[20:]),
			sections: int(binary.LittleEndian.Uint32(hdr[28:])),
		}
		if version >= 4 {
			h.walLSN = binary.LittleEndian.Uint64(hdr[32:])
			h.metaLen = int(binary.LittleEndian.Uint32(hdr[40:]))
			h.metaCRC = binary.LittleEndian.Uint32(hdr[44:])
			if h.metaLen > maxCheckpointMeta {
				return checkpointHeader{}, fmt.Errorf("%w: %d-byte meta blob", ErrCorruptCheckpoint, h.metaLen)
			}
		}
		// A delta may legitimately carry zero sections (nothing dirtied
		// since the base); dense formats must cover the node universe.
		minSections := 1
		if version == checkpointVersionDelta {
			minSections = 0
		}
		if h.sections < minSections || uint32(h.sections) > h.numNodes {
			return checkpointHeader{}, fmt.Errorf("%w: %d sections for %d nodes", ErrCorruptCheckpoint, h.sections, h.numNodes)
		}
		return h, nil
	default:
		return checkpointHeader{}, fmt.Errorf("%w: not a GZE2/GZE3/GZE4/GZD1 checkpoint", ErrCorruptCheckpoint)
	}
}

// readCheckpointMeta reads and verifies the GZE4 meta blob following the
// header (nil for earlier versions or an empty blob).
func readCheckpointMeta(br *bufio.Reader, h checkpointHeader) ([]byte, error) {
	if h.version < 4 || h.metaLen == 0 {
		if h.version >= 4 && h.metaCRC != 0 {
			return nil, fmt.Errorf("%w: empty meta with nonzero checksum", ErrCorruptCheckpoint)
		}
		return nil, nil
	}
	meta := make([]byte, h.metaLen)
	if _, err := io.ReadFull(br, meta); err != nil {
		return nil, fmt.Errorf("core: checkpoint truncated in meta blob: %w", err)
	}
	if crc32.Checksum(meta, crcTable) != h.metaCRC {
		return nil, fmt.Errorf("%w: meta blob checksum mismatch", ErrCorruptCheckpoint)
	}
	return meta, nil
}

// sectionHeader is one decoded inline section header.
type sectionHeader struct {
	start   uint32
	count   int
	payload int
	crc     uint32
}

// parseSectionHeader sanity-checks one inline section header against the
// engine's geometry and the expected coverage cursor.
func (e *Engine) parseSectionHeader(sh []byte, expectStart uint32) (sectionHeader, error) {
	s := sectionHeader{
		start:   binary.LittleEndian.Uint32(sh[0:]),
		count:   int(binary.LittleEndian.Uint32(sh[4:])),
		payload: int(binary.LittleEndian.Uint64(sh[8:])),
		crc:     binary.LittleEndian.Uint32(sh[16:]),
	}
	if s.start != expectStart || s.count <= 0 ||
		uint32(s.count) > e.cfg.NumNodes-s.start || s.payload != s.count*e.slotSize {
		return sectionHeader{}, fmt.Errorf("%w: section (start=%d count=%d payload=%d) at node cursor %d",
			ErrCorruptCheckpoint, s.start, s.count, s.payload, expectStart)
	}
	return s, nil
}

// readSectionHeader reads and sanity-checks one inline section header.
func (e *Engine) readSectionHeader(br *bufio.Reader, expectStart uint32) (sectionHeader, error) {
	var sh [sectionHeaderLen]byte
	if _, err := io.ReadFull(br, sh[:]); err != nil {
		return sectionHeader{}, fmt.Errorf("core: checkpoint truncated at section header (node %d): %w", expectStart, err)
	}
	return e.parseSectionHeader(sh[:], expectStart)
}

// decodeSection installs a verified section payload into the engine's
// sketch state: RAM mode unmarshals each node into its owning shard's
// slab (validating every round header), disk mode writes the whole range
// with one coalesced device access. Safe to call concurrently for
// disjoint sections.
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
			return fmt.Errorf("core: checkpoint slot of node %d: %w", node, err)
		}
	}
	return nil
}

// writeSlot replaces node's sketches from blob (the GZE2 restore path).
func (e *Engine) writeSlot(node uint32, blob []byte) error {
	if e.store != nil {
		return e.store.Write(node, blob)
	}
	sh, local := e.shardOf(node)
	if err := sh.slab.UnmarshalNode(local, blob); err != nil {
		return fmt.Errorf("core: checkpoint slot of node %d: %w", node, err)
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

// ReadCheckpoint restores an engine from a checkpoint stream (GZE3 or
// legacy GZE2), reading front to back. The provided config controls
// deployment choices (workers, buffering, disk placement); its sketch
// parameters are overwritten by the checkpoint's. For a seekable file use
// OpenCheckpoint, which decodes sections in parallel.
func ReadCheckpoint(r io.Reader, cfg Config) (*Engine, error) {
	br := asBufReader(r)
	h, err := readCheckpointHeader(br)
	if err != nil {
		return nil, err
	}
	if h.version == checkpointVersionDelta {
		return nil, fmt.Errorf("%w: cannot restore from a delta stream", ErrDeltaCheckpoint)
	}
	meta, err := readCheckpointMeta(br, h)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(configFromHeader(cfg, h))
	if err != nil {
		return nil, err
	}
	e.adoptChainMeta(h, meta)
	if h.version == 2 {
		if err := e.readLegacyBody(br, h); err != nil {
			e.Close()
			return nil, err
		}
		e.updates.Store(h.updates)
		return e, nil
	}
	var payload []byte
	cursor := uint32(0)
	for s := 0; s < h.sections; s++ {
		sec, err := e.readSectionHeader(br, cursor)
		if err != nil {
			e.Close()
			return nil, err
		}
		payload = e.getSectionBuf(sec.payload)
		if _, err := io.ReadFull(br, payload); err != nil {
			e.Close()
			return nil, fmt.Errorf("core: checkpoint truncated in section at node %d: %w", sec.start, err)
		}
		if crc32.Checksum(payload, crcTable) != sec.crc {
			e.Close()
			return nil, fmt.Errorf("%w: checksum mismatch in section at node %d", ErrCorruptCheckpoint, sec.start)
		}
		if err := e.decodeSection(sec.start, sec.count, payload); err != nil {
			e.Close()
			return nil, err
		}
		e.putSectionBuf(payload)
		cursor = sec.start + uint32(sec.count)
	}
	if cursor != h.numNodes {
		e.Close()
		return nil, fmt.Errorf("%w: sections cover %d of %d nodes", ErrCorruptCheckpoint, cursor, h.numNodes)
	}
	if err := consumeFooter(br, h.sections); err != nil {
		e.Close()
		return nil, err
	}
	e.updates.Store(h.updates)
	return e, nil
}

// readLegacyBody decodes the flat GZE2 slot array.
func (e *Engine) readLegacyBody(br *bufio.Reader, h checkpointHeader) error {
	blob := make([]byte, e.slotSize)
	for node := uint32(0); node < h.numNodes; node++ {
		if _, err := io.ReadFull(br, blob); err != nil {
			return fmt.Errorf("core: checkpoint truncated at node %d: %w", node, err)
		}
		if err := e.writeSlot(node, blob); err != nil {
			return err
		}
	}
	return nil
}

// consumeFooter reads (and validates the trailer of) the footer so a
// streaming reader is left positioned exactly past the checkpoint —
// concatenated streams, as the extension container writes, stay readable.
func consumeFooter(br *bufio.Reader, sections int) error {
	footer := make([]byte, sections*footerEntryLen+footerTrailerLen)
	if _, err := io.ReadFull(br, footer); err != nil {
		return fmt.Errorf("core: checkpoint truncated in footer: %w", err)
	}
	trailer := footer[len(footer)-footerTrailerLen:]
	if [4]byte(trailer[12:16]) != footerMagic {
		return fmt.Errorf("%w: bad footer magic", ErrCorruptCheckpoint)
	}
	return nil
}

// OpenCheckpoint restores an engine from a checkpoint file, decoding
// sections in parallel across the shard worker pool via the GZE3 footer
// (legacy GZE2 files fall back to the streaming path).
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

// ReadCheckpointAt restores an engine from a random-access GZE3
// checkpoint: the footer locates every section, and decode fans out one
// goroutine per shard worker over whole sections (disk mode writes each
// with a single coalesced range access). Legacy GZE2 content falls back
// to the sequential ReadCheckpoint path.
func ReadCheckpointAt(ra io.ReaderAt, size int64, cfg Config) (*Engine, error) {
	var m [4]byte
	if _, err := ra.ReadAt(m[:], 0); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	if m == checkpointMagicV2 {
		return ReadCheckpoint(io.NewSectionReader(ra, 0, size), cfg)
	}
	if size < int64(4+checkpointHeaderLen+footerTrailerLen) {
		return nil, fmt.Errorf("%w: %d bytes is too short", ErrCorruptCheckpoint, size)
	}
	hdr := make([]byte, 4+checkpointHeaderLen)
	if _, err := ra.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint header: %w", err)
	}
	h, err := readCheckpointHeader(bufio.NewReader(bytes.NewReader(hdr)))
	if err != nil {
		return nil, err
	}
	if h.version == checkpointVersionDelta {
		return nil, fmt.Errorf("%w: cannot restore from a delta file", ErrDeltaCheckpoint)
	}
	var meta []byte
	if h.version >= 4 && h.metaLen > 0 {
		metaOff := int64(4 + checkpointHeaderLen)
		if metaOff+int64(h.metaLen) > size {
			return nil, fmt.Errorf("%w: meta blob overruns checkpoint", ErrCorruptCheckpoint)
		}
		meta, err = readCheckpointMeta(bufio.NewReader(io.NewSectionReader(ra, metaOff, int64(h.metaLen))), h)
		if err != nil {
			return nil, err
		}
	}
	var trailer [footerTrailerLen]byte
	if _, err := ra.ReadAt(trailer[:], size-footerTrailerLen); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint trailer: %w", err)
	}
	if [4]byte(trailer[12:16]) != footerMagic {
		return nil, fmt.Errorf("%w: bad footer magic", ErrCorruptCheckpoint)
	}
	footerOff := int64(binary.LittleEndian.Uint64(trailer[0:]))
	if int(binary.LittleEndian.Uint32(trailer[8:])) != h.sections ||
		footerOff <= 0 || footerOff+int64(h.sections*footerEntryLen+footerTrailerLen) != size {
		return nil, fmt.Errorf("%w: trailer/header section mismatch", ErrCorruptCheckpoint)
	}
	footer := make([]byte, h.sections*footerEntryLen)
	if _, err := ra.ReadAt(footer, footerOff); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint footer: %w", err)
	}
	// Validate footer coverage BEFORE fanning out: contiguous sections
	// from node 0 to numNodes. A corrupt footer with overlapping entries
	// must never reach the decode workers — they install disjoint node
	// ranges concurrently and overlap would be a data race, not just a
	// bad decode. The cursor arithmetic runs in uint64 so a crafted count
	// cannot wrap a uint32 cursor back into covered territory.
	cursor := uint64(0)
	for i := 0; i < h.sections; i++ {
		entry := footer[i*footerEntryLen:]
		if uint64(binary.LittleEndian.Uint32(entry[0:])) != cursor {
			return nil, fmt.Errorf("%w: non-contiguous footer sections", ErrCorruptCheckpoint)
		}
		cursor += uint64(binary.LittleEndian.Uint32(entry[4:]))
		if cursor > uint64(h.numNodes) {
			return nil, fmt.Errorf("%w: footer sections overrun %d nodes", ErrCorruptCheckpoint, h.numNodes)
		}
	}
	if cursor != uint64(h.numNodes) {
		return nil, fmt.Errorf("%w: sections cover %d of %d nodes", ErrCorruptCheckpoint, cursor, h.numNodes)
	}

	e, err := NewEngine(configFromHeader(cfg, h))
	if err != nil {
		return nil, err
	}
	e.adoptChainMeta(h, meta)
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
				off := int64(binary.LittleEndian.Uint64(entry[8:]))
				var shdr [sectionHeaderLen]byte
				if _, err := ra.ReadAt(shdr[:], off); err != nil {
					*slot = fmt.Errorf("core: reading section header at node %d: %w", binary.LittleEndian.Uint32(entry[0:]), err)
					continue
				}
				sec, err := e.parseSectionHeader(shdr[:], binary.LittleEndian.Uint32(entry[0:]))
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
	h, err := readCheckpointHeader(br)
	if err != nil {
		return err
	}
	if h.version == checkpointVersionDelta {
		return fmt.Errorf("%w: cannot merge a delta stream", ErrDeltaCheckpoint)
	}
	if err := e.checkCompatible(h); err != nil {
		return err
	}
	// The source's meta blob and WAL position describe the *remote*
	// worker's log and gate, meaningless to the merging engine — verify
	// and discard.
	if _, err := readCheckpointMeta(br, h); err != nil {
		return err
	}
	// A slot equal to the empty-sketch encoding XORs as the identity, so
	// the set of nodes the merge actually changes is exactly the incoming
	// non-empty slots: mark those precisely (dirty for the incremental
	// query, dirtySeal for the delta checkpoint chain) instead of the old
	// dirty-everything reset, so the next query after a sparse merge runs
	// the delta path over the touched components only.
	empty := e.emptySlotBytes()
	if h.version == 2 {
		if err := e.mergeLegacyBody(br, h, empty); err != nil {
			return err
		}
	} else {
		if err := e.mergeSections(br, h, empty); err != nil {
			return err
		}
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
	seeds := make([]uint64, e.cfg.Rounds)
	for r := range seeds {
		seeds[r] = e.roundSeed(r)
	}
	buf := make([]byte, e.slotSize)
	cubesketch.NewSlab(1, e.vecLen, e.cfg.Columns, seeds).MarshalNode(0, buf)
	return buf
}

// mergeSections merges a GZE3 body section by section.
func (e *Engine) mergeSections(br *bufio.Reader, h checkpointHeader, empty []byte) error {
	cursor := uint32(0)
	for s := 0; s < h.sections; s++ {
		sec, err := e.readSectionHeader(br, cursor)
		if err != nil {
			return err
		}
		incoming := e.getSectionBuf(sec.payload)
		if _, err := io.ReadFull(br, incoming); err != nil {
			e.putSectionBuf(incoming)
			return fmt.Errorf("core: checkpoint truncated in section at node %d: %w", sec.start, err)
		}
		if crc32.Checksum(incoming, crcTable) != sec.crc {
			e.putSectionBuf(incoming)
			return fmt.Errorf("%w: checksum mismatch in section at node %d", ErrCorruptCheckpoint, sec.start)
		}
		err = e.mergeSectionPayload(sec.start, sec.count, incoming, empty)
		e.putSectionBuf(incoming)
		if err != nil {
			return err
		}
		cursor = sec.start + uint32(sec.count)
	}
	if cursor != e.cfg.NumNodes {
		return fmt.Errorf("%w: sections cover %d of %d nodes", ErrCorruptCheckpoint, cursor, e.cfg.NumNodes)
	}
	return consumeFooter(br, h.sections)
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
				return fmt.Errorf("core: merging node %d: %w", node, err)
			}
		}
		return nil
	}
	local := e.getSectionBuf(count * e.slotSize)
	defer e.putSectionBuf(local)
	if err := e.store.ReadRange(start, count, local); err != nil {
		return fmt.Errorf("core: merge read of nodes [%d,%d): %w", start, int(start)+count, err)
	}
	for j := 0; j < count; j++ {
		if bytes.Equal(incoming[j*e.slotSize:(j+1)*e.slotSize], empty) {
			continue
		}
		e.markChangedNode(start + uint32(j))
		for r := 0; r < e.cfg.Rounds; r++ {
			off := j*e.slotSize + r*e.sketchSize
			if err := cubesketch.MergeSerialized(local[off:off+e.sketchSize], incoming[off:off+e.sketchSize]); err != nil {
				return fmt.Errorf("core: merging node %d round %d: %w", start+uint32(j), r, err)
			}
		}
	}
	if err := e.store.WriteRange(start, count, local); err != nil {
		return fmt.Errorf("core: merge write of nodes [%d,%d): %w", start, int(start)+count, err)
	}
	return nil
}

// mergeLegacyBody merges a flat GZE2 slot array, one slot at a time, via
// the same zero-alloc slot-merge primitives.
func (e *Engine) mergeLegacyBody(br *bufio.Reader, h checkpointHeader, empty []byte) error {
	incoming := e.getSectionBuf(e.slotSize)
	defer e.putSectionBuf(incoming)
	var local []byte
	if e.store != nil {
		local = e.getSectionBuf(e.slotSize)
		defer e.putSectionBuf(local)
	}
	for node := uint32(0); node < h.numNodes; node++ {
		if _, err := io.ReadFull(br, incoming); err != nil {
			return fmt.Errorf("core: checkpoint truncated at node %d: %w", node, err)
		}
		if bytes.Equal(incoming, empty) {
			continue
		}
		e.markChangedNode(node)
		if e.store == nil {
			sh, localIdx := e.shardOf(node)
			if err := sh.slab.MergeNodeBinary(localIdx, incoming); err != nil {
				return fmt.Errorf("core: merging node %d: %w", node, err)
			}
			continue
		}
		if err := e.store.Read(node, local); err != nil {
			return err
		}
		for r := 0; r < e.cfg.Rounds; r++ {
			off := r * e.sketchSize
			if err := cubesketch.MergeSerialized(local[off:off+e.sketchSize], incoming[off:off+e.sketchSize]); err != nil {
				return fmt.Errorf("core: merging node %d round %d: %w", node, r, err)
			}
		}
		if err := e.store.Write(node, local); err != nil {
			return err
		}
	}
	return nil
}
