package core

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphzeppelin/internal/cubesketch"
	"graphzeppelin/internal/wal"
)

// Checkpoint format — one layout for full and delta checkpoints:
//
//	magic    [4]byte "GZE6" (the version: "GZE5" and older hold sketches
//	  of another row derivation and are refused as incompatible)
//	header   [48]byte:
//	  numNodes     uint32
//	  seed         uint64
//	  columns      uint32
//	  rounds       uint32
//	  updates      uint64
//	  sectionCount uint32
//	  walLSN       uint64 — last WAL LSN covered by this checkpoint (0
//	    with the WAL disabled); RecoverChain replays only records above it,
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
// A full checkpoint's sections tile the writer's owned range — [0,
// numNodes) for a whole-universe engine, Config.Range for a range engine,
// whose header still names the universe — and its envelope's
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
// universe: one plan (deltaPlan), one seal and one encoder
// (streamCheckpoint) serve both, and neither kind copies its slots at
// the seal — the encoder reads them out of the store under the capture's
// images.
//
// The read side is one reader and two verbs. The reader (readRuns) yields
// runs checked against the geometry, the node range they must lie in and
// their CRC, from an io.Reader front to back (the inline section headers
// make a stream self-delimiting, so checkpoints concatenate; the footer is
// rebuilt and must match the stream's byte for byte), or from an
// io.ReaderAt, whose footer lets the sections decode in parallel. A
// consumer then installs a run (install, the one writer of checkpoint
// slots: restore, delta apply, range install) or XORs it in
// (MergeCheckpoint). Restore is a fresh engine plus install; recovery is
// restore, then install each delta, then WAL replay (RecoverChain).
// Checksums are per section, so corruption is caught before its node
// range is touched. Encode and the file restore fan out over whole
// sections, in disk mode with one coalesced range access each.
//
// Linearity makes checkpoints composable: because sketches are mergeable,
// a checkpoint written on one machine can be merged into a live engine
// with the same parameters elsewhere (the distributed-partitioning
// direction of the paper's conclusion; see MergeCheckpoint).

var (
	checkpointMagic = [4]byte{'G', 'Z', 'E', '6'}
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
// parameters (node count, seed, columns, rounds) differ from the engine's,
// and when reading a checkpoint of an older format version, whose bucket
// bytes this build would misread.
var ErrIncompatibleCheckpoint = errors.New("core: incompatible checkpoint parameters")

// ErrCorruptCheckpoint is returned when a checkpoint section fails its
// CRC-32C check or the stream structure is malformed.
var ErrCorruptCheckpoint = errors.New("core: corrupt checkpoint")

// nodeRun is one section of a checkpoint plan: the serialized slots of
// local nodes [start, start+count).
type nodeRun struct {
	start uint32
	count int
}

// sectionNodes picks how many nodes one section spans for this engine:
// sections target sectionTargetBytes of payload, with at least one section
// per shard worker so encode and restore fan out.
func (e *Engine) sectionNodes() uint32 {
	total := int64(e.n) * int64(e.slotSize)
	n := int((total + sectionTargetBytes - 1) / sectionTargetBytes)
	if n < len(e.shards) {
		n = len(e.shards)
	}
	if uint32(n) > e.n {
		n = int(e.n)
	}
	return (e.n + uint32(n) - 1) / uint32(n)
}

// deltaPlan is the section plan of a checkpoint over the count strictly
// ascending ids it ships, id(0) … id(count-1): one section per run of
// consecutive ids, cut every nps nodes. A delta's ids are the nodes
// dirtied since its base; a full checkpoint's are every owned node, id(i)
// = i, whose plan is therefore the owned range tiled into sections of nps
// nodes (the last one shorter) and needs no list of them. Ascending ids
// are consecutive from i to i+k exactly when they span k, so each run is
// one binary search, and a plan costs O(sections log nps) — under the
// seal's quiesce lock, whatever the node count.
func deltaPlan(count int, id func(int) uint32, nps uint32) []nodeRun {
	var plan []nodeRun
	for i := 0; i < count; {
		start := id(i)
		tile := min(int(nps-start%nps), count-i) // ids the run may hold
		run := sort.Search(tile, func(k int) bool { return id(i+k)-start != uint32(k) })
		plan = append(plan, nodeRun{start: start, count: run})
		i += run
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
// snapshot — spilling the write-back cache out of core, then installing
// the capture's seal — then released: the sections are encoded by a worker
// pool straight out of the store and streamed to w while ingestion
// continues, so the ingest stall is the drain (plus the cache spill out of
// core; reported in Stats.CheckpointStallNanos), not a copy of the
// sketches and not writer bandwidth. What a seal holds in RAM is the
// sections in flight plus the images of nodes changed before their section
// was encoded, within the capture's one budget (capture.go). The
// checkpoint is an exact cut: it contains every update whose ingest call
// returned before WriteCheckpoint began and none accepted after the seal.
// Concurrent WriteCheckpoint/MergeCheckpoint calls are serialized.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	cs, err := e.SealCheckpointSince(0)
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
	// SealCheckpointSince/StreamTo pair, which never truncates.
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
	cs, err := e.SealCheckpointSince(0)
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
// that means a *full* checkpoint file landed (or a WAL-less RecoverChain
// folded the chain into one): a delta file alone never licenses
// truncation, because the log past the base is what recovers a lost or
// corrupt delta.
func (e *Engine) TruncateWALThrough(lsn uint64) { e.truncateWAL(lsn) }

// CheckpointSnapshot is a sealed, consistent cut of an engine's sketch
// state, full or delta, ready to stream with StreamTo. Sealing is the only
// phase that excludes ingestion, and it copies no sketch: the snapshot is
// a plan of sections plus the capture's seal, whose images StreamTo puts
// over the planned slots changed since. Multi-engine structures seal every
// engine back to back under one exclusion window and only then stream, so
// the combined checkpoint is a single cut. The snapshot holds the engine's
// checkpoint mutex until Close, which must always be called (usually
// deferred); StreamTo may be called at most once.
type CheckpointSnapshot struct {
	e        *Engine
	updates  uint64
	walLSN   uint64    // last WAL LSN the cut covers (0 with the WAL off)
	meta     []byte    // chain envelope + caller metadata sealed with the cut
	sections []nodeRun // the section plan, which the capture holds sealed until Close
	written  bool
	closed   bool

	// Chain identity (delta.go): ckptID is the id this seal minted, and
	// baseID names the base checkpoint a delta chains onto (0 for a full
	// one).
	ckptID uint64
	baseID uint64
}

// SealCheckpointSince drains buffered updates and seals a snapshot of the
// current sketch state, excluding ingestion only for that long (the
// drain + seal duration lands in Stats.CheckpointStallNanos). Sealing
// copies no sketch, full or delta: it plans the sections, flushes the
// store and installs the capture's seal over the plan, whose images
// StreamTo puts over the planned slots changed since. The caller must
// Close the returned snapshot, after streaming it with StreamTo.
//
// When possible the snapshot is a sparse delta against the checkpoint
// this engine previously sealed with id baseID (0: always full): only the
// nodes changed since that seal are included, and the
// consumer chains it onto its copy of the base with ApplyDeltaCheckpoint.
// Any number of consumers may each hold their own base: every seal is a
// cut, and a delta against any of them carries exactly the nodes changed
// after it. The seal falls back to a full checkpoint — transparently;
// inspect IsDelta — when baseID is 0 or unknown (not this engine's lineage,
// or more than maxSealMarks seals old), when delta checkpoints are
// disabled, or when the changed fraction exceeds
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

func (e *Engine) sealCheckpointLocked(baseID uint64) (_ *CheckpointSnapshot, err error) {
	stallStart := time.Now()
	e.quiesce.Lock()
	defer func() {
		e.quiesce.Unlock()
		if err == nil {
			e.lastCkptStall.Store(int64(time.Since(stallStart)))
		}
	}()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := e.drainLocked(); err != nil {
		return nil, err
	}
	cs := &CheckpointSnapshot{e: e, updates: e.updates.Load()}
	// Both reads happen under the quiesce write lock after the drain:
	// every WAL append belongs to an ingest call that also finished its
	// buffer insert (same read-lock hold), so the drained sketch state
	// covers exactly the LSNs up to this tail; and the meta supplier
	// observes precisely the committed-gate state of the same cut. A
	// WAL-less engine restored from a checkpoint still covers the restored
	// position and meta — propagating both is what lets a WAL-less
	// RecoverChain fold a chain into a full checkpoint that carries the
	// tip's WAL coverage and gate snapshot.
	cs.walLSN = e.restoredWALPos
	if e.log != nil {
		cs.walLSN = e.log.TailLSN()
	}
	user := e.restoredMeta
	if e.ckptMeta != nil {
		user = e.ckptMeta()
	}
	// Every seal advances the chain: take a cut, mark it with the new state
	// id, full or not — a full checkpoint is as valid a delta base as any.
	cs.ckptID = e.mintSealID(cs.walLSN)
	if ids, baseLSN, ok := e.planDelta(baseID, cs.ckptID); ok {
		cs.baseID = baseID
		cs.meta = encodeMetaEnvelope(e.chainTag, cs.ckptID, baseID, baseLSN, user)
		cs.sections = deltaPlan(len(ids), func(i int) uint32 { return ids[i] }, e.sectionNodes())
	} else {
		cs.meta = encodeMetaEnvelope(e.chainTag, cs.ckptID, 0, 0, user)
		cs.sections = deltaPlan(int(e.n), func(i int) uint32 { return uint32(i) }, e.sectionNodes())
	}
	// The store now holds the cut. From here on the section scanner reads
	// it while the workers change it, and every planned slot changed ahead
	// of its section's scan leaves its image at the seal in the capture.
	if err := e.sketches.flush(); err != nil {
		return nil, err
	}
	e.capture.seal(cs.sections)
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

// Close releases the snapshot: the capture's seal is retired (waking any
// worker blocked on it) and the engine's checkpoint mutex is released.
// Idempotent.
func (cs *CheckpointSnapshot) Close() {
	if cs.closed {
		return
	}
	cs.closed = true
	cs.e.capture.finish()
	cs.e.ckptMu.Unlock()
}

// newSlab returns an empty slab of nodes node sketches in this engine's
// geometry.
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
	// free holds the stream's workers+1 payload buffers, each sized for the
	// plan's largest section, and bounds encoded-but-unwritten sections so
	// memory stays O(workers × section), not O(checkpoint). A buffer is
	// taken before claiming a section index: a claimed section therefore
	// always has one and runs to completion, so the in-order writer below
	// can never wait on a section whose worker is blocked here.
	maxCount := 0
	for _, run := range plan {
		maxCount = max(maxCount, run.count)
	}
	free := make(chan []byte, workers+1)
	for range cap(free) {
		free <- e.getSectionBuf(maxCount * e.slotSize)
	}
	var next atomic.Int64
	var encoders sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		encoders.Add(1)
		go func() {
			defer encoders.Done()
			for {
				buf := <-free
				i := int(next.Add(1)) - 1
				if i >= len(plan) {
					free <- buf
					return
				}
				payload := buf[:plan[i].count*e.slotSize]
				err := e.encodeSection(i, plan[i], payload)
				results[i] = encoded{payload: payload, crc: crc32.Checksum(payload, crcTable), err: err}
				close(done[i])
			}
		}()
	}
	defer func() {
		encoders.Wait()
		for range cap(free) {
			e.putSectionBuf(<-free)
		}
	}()

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
			binary.LittleEndian.PutUint32(sh[0:], e.lo+run.start)
			binary.LittleEndian.PutUint32(sh[4:], uint32(run.count))
			binary.LittleEndian.PutUint64(sh[8:], uint64(len(res.payload)))
			binary.LittleEndian.PutUint32(sh[16:], res.crc)
			footer = appendFooterEntry(footer, e.lo+run.start, run.count, off)
			if _, err := bw.Write(sh[:]); err != nil {
				firstErr = err
			} else if _, err := bw.Write(res.payload); err != nil {
				firstErr = err
			}
			off += sectionHeaderLen + uint64(len(res.payload))
		}
		free <- res.payload
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
// the snapshot's plan, full or delta: it claims the section, reads the
// store and substitutes the capture's images — the seal-time cut.
func (e *Engine) encodeSection(sec int, run nodeRun, payload []byte) error {
	e.capture.claim(sec)
	err := e.sketches.readSlots(run.start, run.count, payload)
	e.capture.substitute(sec, payload)
	return err
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

// asBufReader reuses r when it already buffers (a caller reading
// concatenated checkpoints shares one bufio.Reader across them;
// double-buffering would over-read past a stream's end).
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
		if [3]byte(m[:]) == [3]byte(checkpointMagic[:]) && m[3] >= '1' && m[3] < checkpointMagic[3] {
			return fail(fmt.Errorf("%w: checkpoint version %q, this build reads %q",
				ErrIncompatibleCheckpoint, m[:], checkpointMagic[:]))
		}
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
// the section). A section inside the universe but outside the range
// [lo, hi) the stream must lie in is ErrOutOfRange, not corruption: a
// well-formed stream of the wrong node range.
func (e *Engine) parseSectionHeader(sh []byte, lo, cursor, hi uint32, contiguous bool) (sectionHeader, error) {
	s := sectionHeader{
		start:   binary.LittleEndian.Uint32(sh[0:]),
		count:   int(binary.LittleEndian.Uint32(sh[4:])),
		payload: int(binary.LittleEndian.Uint64(sh[8:])),
		crc:     binary.LittleEndian.Uint32(sh[16:]),
	}
	if s.start >= e.cfg.NumNodes || s.count <= 0 || uint32(s.count) > e.cfg.NumNodes-s.start || s.payload != s.count*e.slotSize {
		return sectionHeader{}, fmt.Errorf("%w: section (start=%d count=%d payload=%d) at node cursor %d",
			ErrCorruptCheckpoint, s.start, s.count, s.payload, cursor)
	}
	if s.start < lo || s.start+uint32(s.count) > hi {
		return sectionHeader{}, fmt.Errorf("%w: section [%d,%d) outside [%d,%d)",
			ErrOutOfRange, s.start, s.start+uint32(s.count), lo, hi)
	}
	if s.start < cursor || (contiguous && s.start != cursor) {
		return sectionHeader{}, fmt.Errorf("%w: section (start=%d count=%d) at node cursor %d",
			ErrCorruptCheckpoint, s.start, s.count, cursor)
	}
	return s, nil
}

// checkSlots validates every slot of a section payload starting at node
// start, touching no live state: each round's header must be the one this
// engine's empty slot carries (vector length, seed, columns, rows).
func (e *Engine) checkSlots(start uint32, count int, payload []byte) error {
	const header = 32
	for j := 0; j < count; j++ {
		slot := payload[j*e.slotSize : (j+1)*e.slotSize]
		for off := 0; off < e.slotSize; off += e.sketchSize {
			if !bytes.Equal(slot[off:off+header], e.emptySlot[off:off+header]) {
				return fmt.Errorf("%w: slot of node %d: round %d header does not match the engine's",
					ErrCorruptCheckpoint, start+uint32(j), off/e.sketchSize)
			}
		}
	}
	return nil
}

// readSection reads the section at r's position: its header checked by
// parseSectionHeader, its payload read whole into a pooled buffer (the
// caller returns it with putSectionBuf) and CRC-verified.
func (e *Engine) readSection(r io.Reader, lo, cursor, hi uint32, contiguous bool) (sectionHeader, []byte, error) {
	var shdr [sectionHeaderLen]byte
	if _, err := io.ReadFull(r, shdr[:]); err != nil {
		return sectionHeader{}, nil, fmt.Errorf("core: checkpoint truncated at section header (node %d): %w", cursor, err)
	}
	sec, err := e.parseSectionHeader(shdr[:], lo, cursor, hi, contiguous)
	if err != nil {
		return sec, nil, err
	}
	payload := e.getSectionBuf(sec.payload)
	if _, err = io.ReadFull(r, payload); err != nil {
		err = fmt.Errorf("core: checkpoint truncated in section at node %d: %w", sec.start, err)
	} else if crc32.Checksum(payload, crcTable) != sec.crc {
		err = fmt.Errorf("%w: checksum mismatch in section at node %d", ErrCorruptCheckpoint, sec.start)
	}
	if err != nil {
		e.putSectionBuf(payload)
		return sec, nil, err
	}
	return sec, payload, nil
}

// runVisitor takes one verified run of global nodes [start,
// start+count) of e; payload is only valid during the call.
type runVisitor func(e *Engine, start uint32, count int, payload []byte) error

// ckptBody is where a checkpoint's sections are read from: a stream
// positioned just past the header, or a file image of size bytes.
type ckptBody struct {
	br   *bufio.Reader
	ra   io.ReaderAt
	size int64
}

// readRuns is the one checkpoint reader, for restore, merge, delta apply
// and range installs. It hands visit each section of the body as a run,
// checked against the geometry, the coverage cursor and the node range
// [lo, hi) the checkpoint must lie in (a full checkpoint's sections tile
// it, a delta's ascend inside it), read whole and CRC-verified. visit
// takes the engine so that the verbs pass as method expressions, which
// cost no allocation.
//
// From a stream, sections are read in order and the footer rebuilt from
// them must equal the stream's — so a stream that restores here also
// opens from a file — which leaves the reader exactly past the
// checkpoint. From a ReaderAt (full checkpoints only), the footer's tiling
// is validated before anything fans out (overlapping entries would race
// two decoders on one node), then sections decode one goroutine per shard
// worker, visit running concurrently on disjoint runs.
func (e *Engine) readRuns(body ckptBody, h checkpointHeader, lo, hi uint32, delta bool, visit runVisitor) error {
	off := uint64(4+checkpointHeaderLen) + uint64(h.metaLen)
	if body.ra == nil {
		want := make([]byte, 0, h.sections*footerEntryLen+footerTrailerLen)
		cursor := lo
		for s := 0; s < h.sections; s++ {
			sec, payload, err := e.readSection(body.br, lo, cursor, hi, !delta)
			if err != nil {
				return err
			}
			err = visit(e, sec.start, sec.count, payload)
			e.putSectionBuf(payload)
			if err != nil {
				return err
			}
			want = appendFooterEntry(want, sec.start, sec.count, off)
			off += sectionHeaderLen + uint64(sec.payload)
			cursor = sec.start + uint32(sec.count)
		}
		if !delta && cursor != hi {
			return fmt.Errorf("%w: sections cover [%d,%d) of [%d,%d)", ErrCorruptCheckpoint, lo, cursor, lo, hi)
		}
		want = appendFooterTrailer(want, off, h.sections)
		got := make([]byte, len(want))
		if _, err := io.ReadFull(body.br, got); err != nil {
			return fmt.Errorf("core: checkpoint truncated in footer: %w", err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%w: footer does not match the sections read", ErrCorruptCheckpoint)
		}
		return nil
	}

	footer := make([]byte, h.sections*footerEntryLen+footerTrailerLen)
	if _, err := body.ra.ReadAt(footer, body.size-int64(len(footer))); err != nil {
		return fmt.Errorf("core: reading checkpoint footer: %w", err)
	}
	// The cursor arithmetic runs in uint64 so a crafted count cannot wrap
	// a uint32 cursor back into covered territory.
	cursor := uint64(lo)
	for i := 0; i < h.sections; i++ {
		entry := footer[i*footerEntryLen:]
		count := uint64(binary.LittleEndian.Uint32(entry[4:]))
		if uint64(binary.LittleEndian.Uint32(entry[0:])) != cursor || count == 0 ||
			cursor+count > uint64(hi) || binary.LittleEndian.Uint64(entry[8:]) != off {
			return fmt.Errorf("%w: footer entry %d does not continue the tiling at node %d", ErrCorruptCheckpoint, i, cursor)
		}
		cursor += count
		off += sectionHeaderLen + count*uint64(e.slotSize)
	}
	if cursor != uint64(hi) {
		return fmt.Errorf("%w: sections cover [%d,%d) of [%d,%d)", ErrCorruptCheckpoint, lo, cursor, lo, hi)
	}
	if !bytes.Equal(footer[h.sections*footerEntryLen:], appendFooterTrailer(nil, off, h.sections)) {
		return fmt.Errorf("%w: bad footer trailer", ErrCorruptCheckpoint)
	}
	errs := make([]error, min(len(e.shards), h.sections))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < h.sections && errs[w] == nil; i = int(next.Add(1)) - 1 {
				entry := footer[i*footerEntryLen:]
				start, count := binary.LittleEndian.Uint32(entry[0:]), int(binary.LittleEndian.Uint32(entry[4:]))
				off := int64(binary.LittleEndian.Uint64(entry[8:]))
				sec, payload, err := e.readSection(io.NewSectionReader(body.ra, off, body.size-off), lo, start, hi, true)
				// The inline count must match the validated footer entry —
				// otherwise a lying section header could widen this worker's
				// run into a neighbour section mid-decode.
				if err == nil && sec.count != count {
					err = fmt.Errorf("%w: section at node %d declares %d nodes, footer says %d", ErrCorruptCheckpoint, sec.start, sec.count, count)
				}
				if err == nil {
					err = visit(e, sec.start, sec.count, payload)
				}
				if payload != nil {
					e.putSectionBuf(payload)
				}
				errs[w] = err
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
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
	return restore(h, env, ckptBody{br: br}, cfg)
}

// OpenCheckpoint restores an engine from a full checkpoint file, decoding
// sections in parallel across the shard worker pool via the footer (disk
// mode writes each with a single coalesced range access).
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
	return readCheckpointAt(f, st.Size(), cfg)
}

// readCheckpointAt is OpenCheckpoint over any random-access image.
func readCheckpointAt(ra io.ReaderAt, size int64, cfg Config) (*Engine, error) {
	h, env, err := readCheckpointHeader(bufio.NewReader(io.NewSectionReader(ra, 0, size)))
	if err != nil {
		return nil, err
	}
	return restore(h, env, ckptBody{ra: ra, size: size}, cfg)
}

// restore is the one restore: a fresh engine over the checkpoint's
// geometry, with cfg's deployment choices, every run of the body
// installed, then the writer's update count and chain position adopted
// (after the install, so the install's stamps predate the adopted cut).
// A file's header, meta and footer fully determine its layout, so its size
// is checked against them before the header's claim allocates anything.
func restore(h checkpointHeader, env metaEnvelope, body ckptBody, cfg Config) (*Engine, error) {
	if env.baseID != 0 {
		return nil, fmt.Errorf("%w: cannot restore from a delta", ErrDeltaCheckpoint)
	}
	cfg, err := configFromHeader(cfg, h).withDefaults()
	if err != nil {
		return nil, err
	}
	if body.ra != nil {
		_, n := cfg.owned()
		// The divisions keep a crafted header from overflowing the products.
		sketch := int64(cubesketch.SerializedSize(cfg.VectorLen(), h.columns))
		if sketch > body.size/int64(h.rounds) || sketch*int64(h.rounds) > body.size/int64(n) {
			return nil, fmt.Errorf("%w: %d bytes cannot hold %d nodes", ErrCorruptCheckpoint, body.size, n)
		}
		if want := checkpointSize(h.metaLen, h.sections, int64(n), sketch*int64(h.rounds)); body.size != want {
			return nil, fmt.Errorf("%w: %d bytes, header describes %d", ErrCorruptCheckpoint, body.size, want)
		}
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.readRuns(body, h, e.lo, e.lo+e.n, false, (*Engine).install); err != nil {
		e.Close()
		return nil, err
	}
	e.updates.Store(h.updates)
	e.adoptChainMeta(h, env)
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

// Checkpoint is one checkpoint stream — full or delta — opened by ReadRange
// as node range [lo, hi) of an engine: how a gzserve coordinator takes in
// one worker's range. Its body is read once, by Load, into RAM.
type Checkpoint struct {
	// Updates is the writer's update count at the cut, Pos the writer's
	// chain position at it, and Base, for a delta, the position the delta
	// chains onto (zero for a full checkpoint).
	Updates   uint64
	Pos, Base ChainPos

	e      *Engine
	lo, hi uint32
	h      checkpointHeader
	env    metaEnvelope
	br     *bufio.Reader // the unread body; nil once read
	err    error         // what reading the body returned
	runs   []verifiedRun // the body Load read
}

// verifiedRun is one section Load read: the slots of global nodes
// [start, start+count).
type verifiedRun struct {
	start uint32
	count int
	slots []byte
}

// IsDelta reports whether the stream is a delta checkpoint.
func (cp *Checkpoint) IsDelta() bool { return cp.Base.ID != 0 }

// ReadRange opens the checkpoint stream r as node range [lo, hi) of this
// engine's owned range: the header is read now and must match the
// engine's geometry, and every section must lie in [lo, hi), a full
// checkpoint's tiling it (ErrOutOfRange otherwise, when the body is
// read). Touches no engine state; safe for concurrent use.
func (e *Engine) ReadRange(r io.Reader, lo, hi uint32) (*Checkpoint, error) {
	if lo >= hi || lo < e.lo || hi > e.lo+e.n {
		return nil, fmt.Errorf("%w: [%d,%d) is not a range of the engine's [%d,%d)", ErrOutOfRange, lo, hi, e.lo, e.lo+e.n)
	}
	br := asBufReader(r)
	h, env, err := readCheckpointHeader(br)
	if err != nil {
		return nil, err
	}
	if err := e.checkCompatible(h); err != nil {
		return nil, err
	}
	cp := &Checkpoint{Updates: h.updates, Pos: ChainPos{env.chainTag, env.ckptID, h.walLSN},
		e: e, lo: lo, hi: hi, h: h, env: env, br: br}
	if env.baseID != 0 {
		cp.Base = ChainPos{env.chainTag, env.baseID, env.baseLSN}
	}
	return cp, nil
}

// Load reads the body into RAM, every section and slot verified, touching
// no engine state: what makes an install all or nothing against bad
// input. The body is read once; a later call returns what the first did.
// Safe for concurrent use on distinct checkpoints.
func (cp *Checkpoint) Load() error {
	if cp.br == nil {
		return cp.err
	}
	br := cp.br
	cp.br = nil
	var runs []verifiedRun
	cp.err = cp.e.readRuns(ckptBody{br: br}, cp.h, cp.lo, cp.hi, cp.IsDelta(), func(e *Engine, start uint32, count int, payload []byte) error {
		if err := e.checkSlots(start, count, payload); err != nil {
			return err
		}
		runs = append(runs, verifiedRun{start, count, append([]byte(nil), payload...)})
		return nil
	})
	if cp.err == nil {
		cp.runs = runs
	}
	return cp.err
}

// Install replaces the slots of every node the checkpoints carry in one
// step under the engine's exclusive lock, so queries see all of them or
// none: a full checkpoint its whole range, a delta its nodes. A node whose
// incoming slot equals its current bytes did not change and is left
// unstamped; every other node is stamped, with its current stack as the
// delta query's image, as the apply path does. No chain position is
// checked or adopted (the caller tracks the writers'). The checkpoints
// come from ReadRange on this engine, over disjoint ranges; each is
// loaded (Load) before the first write, so bad input fails the install
// with nothing written, and they then install concurrently from RAM,
// where only a store fault can fail them. Such a fault leaves an engine
// that matches no stream: the error then sticks, as a failed batch
// apply's does.
func (e *Engine) Install(cps ...*Checkpoint) error {
	return e.exclusive(func() error { return e.installLocked(cps) })
}

// installLocked is Install's body; the caller holds ckptMu and the
// quiesce write lock with the workers drained.
func (e *Engine) installLocked(cps []*Checkpoint) error {
	for i, cp := range cps {
		if cp.e != e {
			return errors.New("core: checkpoint opened by another engine")
		}
		for _, o := range cps[:i] {
			if cp.lo < o.hi && o.lo < cp.hi {
				return fmt.Errorf("%w: [%d,%d) overlaps [%d,%d)", ErrOutOfRange, cp.lo, cp.hi, o.lo, o.hi)
			}
		}
		if err := cp.Load(); err != nil {
			return fmt.Errorf("core: installing nodes [%d,%d): %w", cp.lo, cp.hi, err)
		}
	}
	if err := e.sketches.invalidate(); err != nil {
		return err
	}
	errs := make([]error, len(cps))
	var wg sync.WaitGroup
	for i, cp := range cps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, run := range cp.runs {
				if err := e.install(run.start, run.count, run.slots); err != nil {
					errs[i] = fmt.Errorf("core: installing nodes [%d,%d): %w", cp.lo, cp.hi, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	e.epoch.Add(1)
	if err := cmp.Or(errs...); err != nil {
		e.setErr(err)
		return err
	}
	return nil
}

// install is the one writer of checkpoint slots: it replaces the slots of
// global nodes [start, start+count), stamping each node first with its
// current stack as the baseline's image when the delta query wants one
// (wantsImage; the run is then read once). Sketches are linear, so a node
// whose incoming slot equals the bytes read did not change: it takes no
// stamp and no capture entry, and a full install over a cached result
// dirties only the nodes that differ. Concurrent calls on disjoint runs
// are safe; the caller holds the quiesce write lock, or owns a fresh
// engine.
func (e *Engine) install(start uint32, count int, slots []byte) error {
	start -= e.lo
	var cur []byte
	for j := 0; j < count; j++ {
		if e.wantsImage(start + uint32(j)) {
			cur = e.getSectionBuf(count * e.slotSize)
			defer e.putSectionBuf(cur)
			if err := e.sketches.readSlots(start, count, cur); err != nil {
				return err
			}
			break
		}
	}
	for j := 0; j < count; j++ {
		var img []byte
		if cur != nil {
			img = cur[j*e.slotSize : (j+1)*e.slotSize]
			if bytes.Equal(img, slots[j*e.slotSize:(j+1)*e.slotSize]) {
				continue
			}
		}
		e.markChangedNode(start+uint32(j), img)
	}
	return e.sketches.writeSlots(start, count, slots)
}

// MergeCheckpoint XORs a checkpoint's sketch state into the live engine:
// the result summarizes the union-as-multiset (symmetric difference of
// edge sets, i.e. the mod-2 sum) of both streams. With disjoint shards of
// one stream — the distributed-ingestion pattern of the paper's
// conclusion — the merged engine answers queries for the whole stream.
//
// The merge streams each verified section into the sketch state as one
// run: the local slots are read, each incoming slot is XORed into them at
// the serialized level (cubesketch.MergeSerialized), and the run is written
// back — no intermediate Sketch, one coalesced device access each way out
// of core.
//
// A stream that fails after its first section (a bad CRC, a truncation)
// returns the error with the sections before it already merged, and
// Stats().Updates unchanged: the engine no longer matches any stream, so
// the caller must discard it.
func (e *Engine) MergeCheckpoint(r io.Reader) error {
	return e.exclusive(func() error {
		if err := e.sketches.invalidate(); err != nil {
			return err
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
		if err := e.readRuns(ckptBody{br: br}, h, e.lo, e.lo+e.n, false, (*Engine).mergeRun); err != nil {
			return err
		}
		e.updates.Add(h.updates)
		e.epoch.Add(1)
		return nil
	})
}

// mergeRun XORs one verified section of serialized slots of global nodes
// [start, start+count) into the engine state. A slot equal to the
// empty-sketch encoding XORs as the identity, so the nodes the merge
// actually changes are exactly the incoming non-empty slots: only those
// are stamped, so the next query after a sparse merge runs the delta path
// over the touched components only and the next delta seal ships just
// them. Their images come from the run already read.
func (e *Engine) mergeRun(start uint32, count int, incoming []byte) error {
	start -= e.lo
	local := e.getSectionBuf(count * e.slotSize)
	defer e.putSectionBuf(local)
	if err := e.sketches.readSlots(start, count, local); err != nil {
		return err
	}
	for j := 0; j < count; j++ {
		in, cur := incoming[j*e.slotSize:(j+1)*e.slotSize], local[j*e.slotSize:(j+1)*e.slotSize]
		if bytes.Equal(in, e.emptySlot) {
			continue
		}
		e.markChangedNode(start+uint32(j), cur)
		for off := 0; off < e.slotSize; off += e.sketchSize {
			if err := cubesketch.MergeSerialized(cur[off:off+e.sketchSize], in[off:off+e.sketchSize]); err != nil {
				return fmt.Errorf("%w: merging node %d round %d: %v", ErrCorruptCheckpoint, e.lo+start+uint32(j), off/e.sketchSize, err)
			}
		}
	}
	return e.sketches.writeSlots(start, count, local)
}
