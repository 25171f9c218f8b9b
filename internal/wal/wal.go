// Package wal is the segmented write-ahead log behind the engine's
// continuous-durability mode: every accepted update batch is appended
// (and, per policy, fsynced) here before it enters the ingest pipeline,
// so a crash loses at most the un-acked suffix instead of everything
// since the last checkpoint.
//
// Layout. The log is a sequence of append-only segment files on a
// wal.Storage, each starting with a fixed header:
//
//	magic    [4]byte "GZL1"
//	version  uint8 (1), pad [3]byte
//	segIndex uint64  — matches the wal-%08d.gzl file name
//	baseLSN  uint64  — LSN of the segment's first record
//	prevTail uint64  — last LSN of the predecessor segment at creation
//
// followed by length-prefixed records:
//
//	length  uint32  — payload bytes (a multiple of stream.RecordSize)
//	crc     uint32  — CRC-32C over seq || payload
//	seq     uint64  — client sequence number (0 when unused)
//	payload — packed 9-byte stream update records, the same codec the
//	          file driver and the GZW1 wire share
//
// LSNs number records globally from 1; a record's LSN is implicit in its
// position (baseLSN + ordinal within the segment), so the only
// per-record framing overhead is the 16-byte header.
//
// Group commit. Concurrent appenders encode into a shared buffer; one
// becomes the leader, writes the whole buffer with a single device write
// and (policy permitting) a single fsync, while the rest wait on their
// LSN becoming durable — per-batch fsync cost amortizes across every
// batch that arrived while the previous commit was in flight.
//
// Recovery. Opening an existing log scans segments in order, verifying
// every record's CRC and the cross-segment chain (each header's prevTail
// must equal the scanned tail of its predecessor). The scan truncates at
// the first corrupt suffix: a torn record ends its segment's valid
// prefix and drops every later segment, so replay yields exactly a
// prefix of the append order — never a record with a lost predecessor.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"sync"
	"time"

	"graphzeppelin/internal/iomodel"
	"graphzeppelin/internal/stream"
)

// FsyncPolicy selects when appended records become durable.
type FsyncPolicy int

const (
	// FsyncBatch (the default) fsyncs every group commit: Append returns
	// only once the record is on stable storage, so an ack implies
	// durability. Group commit keeps this to roughly one fsync per queue
	// drain, not one per batch.
	FsyncBatch FsyncPolicy = iota
	// FsyncInterval fsyncs on a background timer: Append returns after
	// the buffered write, and a crash loses at most the last interval.
	FsyncInterval
	// FsyncOff never fsyncs (rotation and close included): durability is
	// whatever the OS page cache survives. The measurement baseline.
	FsyncOff
)

// String names the policy (the CLI flag vocabulary).
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// Set parses s like ParseFsyncPolicy into p, making *FsyncPolicy a
// flag.Value.
func (p *FsyncPolicy) Set(s string) error {
	v, err := ParseFsyncPolicy(s)
	if err == nil {
		*p = v
	}
	return err
}

// ParseFsyncPolicy parses the CLI vocabulary: batch, interval, off.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "batch":
		return FsyncBatch, nil
	case "interval":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want batch, interval or off)", s)
	}
}

const (
	segHeaderLen = 32
	recHeaderLen = 16
	segVersion   = 1
	// maxRecordBytes bounds one record's payload; a scanned length field
	// above it is corruption, not a real record.
	maxRecordBytes = 1 << 27

	// DefaultSegmentBytes is the rotation threshold when Options leaves
	// SegmentBytes zero.
	DefaultSegmentBytes = 8 << 20
	// DefaultInterval is the background fsync period for FsyncInterval
	// when Options leaves Interval zero.
	DefaultInterval = 50 * time.Millisecond
)

var (
	segMagic = [4]byte{'G', 'Z', 'L', '1'}
	crcTable = crc32.MakeTable(crc32.Castagnoli)

	// ErrClosed is returned by operations on a closed log.
	ErrClosed = errors.New("wal: log is closed")
)

func segName(index uint64) string { return fmt.Sprintf("wal-%08d.gzl", index) }

func parseSegName(name string) (uint64, bool) {
	var idx uint64
	if _, err := fmt.Sscanf(name, "wal-%d.gzl", &idx); err != nil {
		return 0, false
	}
	// Round-trip to reject near-misses (wrong padding, trailing junk).
	if segName(idx) != name {
		return 0, false
	}
	return idx, true
}

// Options configures Open.
type Options struct {
	// Storage holds the segments. Required.
	Storage Storage
	// SegmentBytes is the rotation threshold (default 8 MiB). A single
	// record larger than it still fits — the segment just overshoots.
	SegmentBytes int64
	// Policy is the fsync discipline (default FsyncBatch).
	Policy FsyncPolicy
	// Interval is the FsyncInterval period (default 50ms).
	Interval time.Duration
}

// Stats reports log activity.
type Stats struct {
	// Appends counts records appended, Updates the stream updates they
	// carried, Bytes the record bytes written (headers included).
	Appends uint64
	Updates uint64
	Bytes   uint64
	// Fsyncs counts device syncs (group commits, interval ticks, rotation
	// barriers, close); GroupCommits counts leader writes, so
	// Appends/GroupCommits is the achieved batching factor.
	Fsyncs       uint64
	GroupCommits uint64
	// Truncations counts segments deleted by checkpoint-covered
	// truncation.
	Truncations uint64
	// Segments is the live segment count, TailLSN the last assigned LSN,
	// DurableLSN the last LSN known fsynced.
	Segments   int
	TailLSN    uint64
	DurableLSN uint64
	// RecoveredRecords is how many records the opening scan found;
	// RecoveredTorn reports whether it truncated a corrupt suffix.
	RecoveredRecords uint64
	RecoveredTorn    bool
}

// Record is one replayed WAL record.
type Record struct {
	LSN     uint64
	Seq     uint64
	Updates []stream.Update
}

// segment is one live segment file. Fields are owned by the active
// commit leader, or by an l.mu holder that observed no leader running
// (the leader hand-off through l.writing orders the accesses).
type segment struct {
	index   uint64
	base    uint64 // LSN of the first record
	records uint64
	size    int64 // valid bytes, header included
	dev     iomodel.Device
}

// last returns the segment's final LSN (base-1 when empty).
func (s *segment) last() uint64 { return s.base + s.records - 1 }

// Log is a segmented write-ahead log. Append is safe for any number of
// concurrent goroutines; Replay, Truncate and Close serialize against
// appends internally.
type Log struct {
	o Options

	mu   sync.Mutex
	cond *sync.Cond

	nextLSN uint64 // LSN the next Append assigns
	written uint64 // last LSN handed to the device
	synced  uint64 // last LSN known fsynced
	// buf holds the encoded, not-yet-written records; appends encode
	// straight into it. spare is the batch the last leader wrote, handed
	// back empty as the next buf once the leader in flight takes the
	// current one — every Device copies on WriteAt, so the two alternate
	// and steady-state appends allocate nothing.
	buf     []byte
	spare   []byte
	bufRecs uint64
	writing bool // a commit leader is running outside mu
	rotate  bool // rotate before the next leader write
	werr    error
	closed  bool

	segs []*segment

	appends, updates, bytes       uint64
	fsyncs, groupCommits, truncas uint64
	recRecords                    uint64
	recTorn                       bool

	stop     chan struct{}
	tickerWG sync.WaitGroup
}

// Open opens (or creates) the log held by o.Storage, scanning existing
// segments with torn-tail truncation so appends resume exactly after the
// last intact record.
func Open(o Options) (*Log, error) {
	if o.Storage == nil {
		return nil, errors.New("wal: Options.Storage is required")
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	l := &Log{o: o, stop: make(chan struct{})}
	l.cond = sync.NewCond(&l.mu)
	if err := l.recover(); err != nil {
		return nil, err
	}
	if o.Policy == FsyncInterval {
		l.tickerWG.Add(1)
		go l.intervalSyncer()
	}
	return l, nil
}

// recover scans storage, keeps the longest intact prefix, physically
// removes everything after the first corruption, and positions the write
// cursor. The removal matters: a dropped segment left on disk would
// collide with a future segment of the same index and resurrect stale
// records on the next open.
func (l *Log) recover() error {
	names, err := l.o.Storage.List()
	if err != nil {
		return fmt.Errorf("wal: listing segments: %w", err)
	}
	indices := make([]uint64, 0, len(names))
	for _, n := range names {
		if idx, ok := parseSegName(n); ok {
			indices = append(indices, idx)
		}
	}
	for i := 1; i < len(indices); i++ { // List is sorted only for some storages
		for j := i; j > 0 && indices[j] < indices[j-1]; j-- {
			indices[j], indices[j-1] = indices[j-1], indices[j]
		}
	}

	drop := func(from int) error {
		for _, idx := range indices[from:] {
			if err := l.o.Storage.Remove(segName(idx)); err != nil {
				return fmt.Errorf("wal: dropping corrupt segment %d: %w", idx, err)
			}
		}
		l.recTorn = true
		return nil
	}

	prevTail := uint64(0)
	for i, idx := range indices {
		dev, size, err := l.o.Storage.Open(segName(idx))
		if err != nil {
			return fmt.Errorf("wal: opening segment %d: %w", idx, err)
		}
		base, hdrPrev, hdrErr := readSegHeader(dev, size, idx)
		if hdrErr == nil && i > 0 && hdrPrev != prevTail {
			// The predecessor's scanned tail fell short of what this
			// header recorded: records were lost mid-log, so this segment
			// and everything after it are the corrupt suffix.
			hdrErr = fmt.Errorf("chain break: predecessor tail %d, header says %d", prevTail, hdrPrev)
		}
		if hdrErr == nil && i > 0 && base <= prevTail {
			hdrErr = fmt.Errorf("base LSN %d regresses behind tail %d", base, prevTail)
		}
		if hdrErr != nil {
			dev.Close()
			if err := drop(i); err != nil {
				return err
			}
			break
		}
		records, validSize, clean := scanSegment(dev, size, nil)
		seg := &segment{index: idx, base: base, records: records, size: validSize, dev: dev}
		l.segs = append(l.segs, seg)
		l.recRecords += records
		prevTail = seg.last()
		if !clean {
			// Torn tail: this segment's prefix survives, everything later
			// is gone.
			if err := drop(i + 1); err != nil {
				return err
			}
			break
		}
	}

	if len(l.segs) == 0 {
		next := uint64(0)
		if len(indices) > 0 {
			next = indices[len(indices)-1] + 1
		}
		seg, err := l.newSegment(next, 1, 0)
		if err != nil {
			return err
		}
		l.segs = []*segment{seg}
		prevTail = 0
	}
	l.nextLSN = prevTail + 1
	l.written = prevTail
	l.synced = prevTail
	return nil
}

func readSegHeader(dev iomodel.Device, size int64, wantIndex uint64) (base, prevTail uint64, err error) {
	if size < segHeaderLen {
		return 0, 0, fmt.Errorf("wal: segment %d: %d bytes is shorter than the header", wantIndex, size)
	}
	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(io.NewSectionReader(readerAt{dev}, 0, size), hdr[:]); err != nil {
		return 0, 0, err
	}
	if [4]byte(hdr[0:4]) != segMagic || hdr[4] != segVersion {
		return 0, 0, fmt.Errorf("wal: segment %d: bad magic/version", wantIndex)
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != wantIndex {
		return 0, 0, fmt.Errorf("wal: segment %d: header claims index %d", wantIndex, got)
	}
	base = binary.LittleEndian.Uint64(hdr[16:])
	prevTail = binary.LittleEndian.Uint64(hdr[24:])
	if base == 0 || base <= prevTail {
		return 0, 0, fmt.Errorf("wal: segment %d: base LSN %d vs prev tail %d", wantIndex, base, prevTail)
	}
	return base, prevTail, nil
}

// readerAt adapts a Device to io.ReaderAt. Devices already have the
// right method; the wrapper only pins the interface.
type readerAt struct{ d iomodel.Device }

func (r readerAt) ReadAt(p []byte, off int64) (int, error) { return r.d.ReadAt(p, off) }

// scanSegment walks a segment's records, calling fn (when non-nil) with
// each intact record's ordinal, seq and payload. It returns the record
// count, the byte size of the valid prefix, and whether the segment
// ended cleanly (exact end or zeroed tail) as opposed to a torn record.
func scanSegment(dev iomodel.Device, size int64, fn func(ordinal uint64, seq uint64, payload []byte) error) (records uint64, validSize int64, clean bool) {
	br := bufio.NewReaderSize(io.NewSectionReader(readerAt{dev}, segHeaderLen, size-segHeaderLen), 1<<16)
	off := int64(segHeaderLen)
	var hdr [recHeaderLen]byte
	var payload []byte
	for {
		remaining := size - off
		if remaining < recHeaderLen {
			return records, off, tailIsZero(br, remaining)
		}
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return records, off, false
		}
		length := int64(binary.LittleEndian.Uint32(hdr[0:]))
		if length == 0 {
			// A zero length is the clean-end marker (unwritten storage
			// reads as zeros); anything nonzero after it is torn debris.
			return records, off, true
		}
		if length%stream.RecordSize != 0 || length > maxRecordBytes || length > remaining-recHeaderLen {
			return records, off, false
		}
		if int64(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return records, off, false
		}
		crc := crc32.Update(crc32.Checksum(hdr[8:16], crcTable), crcTable, payload)
		if crc != binary.LittleEndian.Uint32(hdr[4:]) {
			return records, off, false
		}
		if fn != nil {
			if err := fn(records, binary.LittleEndian.Uint64(hdr[8:]), payload); err != nil {
				// The caller aborts the scan; report what was consumed so
				// far as valid (the record itself was intact).
				return records, off, false
			}
		}
		records++
		off += recHeaderLen + length
	}
}

// tailIsZero reports whether the sub-header-sized remainder is all zeros
// (clean end) rather than a torn header fragment.
func tailIsZero(br *bufio.Reader, n int64) bool {
	for i := int64(0); i < n; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return true
		}
		if b != 0 {
			return false
		}
	}
	return true
}

// newSegment creates and header-stamps segment index with the given base
// LSN and predecessor tail.
func (l *Log) newSegment(index, base, prevTail uint64) (*segment, error) {
	dev, _, err := l.o.Storage.Open(segName(index))
	if err != nil {
		return nil, fmt.Errorf("wal: creating segment %d: %w", index, err)
	}
	var hdr [segHeaderLen]byte
	copy(hdr[0:], segMagic[:])
	hdr[4] = segVersion
	binary.LittleEndian.PutUint64(hdr[8:], index)
	binary.LittleEndian.PutUint64(hdr[16:], base)
	binary.LittleEndian.PutUint64(hdr[24:], prevTail)
	if _, err := dev.WriteAt(hdr[:], 0); err != nil {
		dev.Close()
		return nil, fmt.Errorf("wal: writing segment %d header: %w", index, err)
	}
	return &segment{index: index, base: base, records: 0, size: segHeaderLen, dev: dev}, nil
}

// appendRecord encodes one record onto dst: the header, then the payload
// that encode appends, then the header's length and CRC over what it
// wrote. Encoding in place is what spares an append its payload buffer.
func appendRecord(dst []byte, seq uint64, encode func([]byte) []byte) []byte {
	var blank [recHeaderLen]byte
	start := len(dst)
	dst = encode(append(dst, blank[:]...))
	hdr, payload := dst[start:start+recHeaderLen], dst[start+recHeaderLen:]
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Update(crc32.Checksum(hdr[8:16], crcTable), crcTable, payload))
	return dst
}

// Append logs one batch of updates under client sequence number seq
// (0 when unused) and returns its LSN. It returns once the record is
// durable per policy: written and fsynced for FsyncBatch, written for
// the others.
func (l *Log) Append(seq uint64, ups []stream.Update) (uint64, error) {
	if len(ups) == 0 {
		return 0, errors.New("wal: empty batch")
	}
	return l.append(seq, len(ups), func(dst []byte) []byte {
		return stream.AppendUpdates(dst, ups)
	})
}

// AppendEdges logs a batch of edge toggles (encoded as insert-type
// records; over Z_2 sketches insert and delete are the same toggle, so
// replay is exact either way).
func (l *Log) AppendEdges(seq uint64, edges []stream.Edge) (uint64, error) {
	if len(edges) == 0 {
		return 0, errors.New("wal: empty batch")
	}
	return l.append(seq, len(edges), func(dst []byte) []byte {
		for _, eg := range edges {
			dst = stream.AppendUpdate(dst, stream.Update{Edge: eg, Type: stream.Insert})
		}
		return dst
	})
}

// append encodes a record of nups updates into the group-commit buffer and
// commits it per policy.
func (l *Log) append(seq uint64, nups int, encode func([]byte) []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.werr != nil {
		return 0, l.werr
	}
	lsn := l.nextLSN
	l.nextLSN++
	l.buf = appendRecord(slices.Grow(l.buf, recHeaderLen+nups*stream.RecordSize), seq, encode)
	l.bufRecs++
	l.appends++
	l.updates += uint64(nups)
	if err := l.commit(lsn, l.o.Policy == FsyncBatch); err != nil {
		return 0, err
	}
	return lsn, nil
}

// commit drives the group-commit protocol until target is durable (per
// needSync) or the log fails. Caller holds l.mu; the leader write runs
// outside it.
func (l *Log) commit(target uint64, needSync bool) error {
	for {
		if l.werr != nil {
			return l.werr
		}
		durable := l.written
		if needSync {
			durable = l.synced
		}
		if durable >= target {
			return nil
		}
		if !l.writing {
			l.writing = true
			batch, records := l.buf, l.bufRecs
			l.buf, l.spare, l.bufRecs = l.spare, nil, 0
			upto := l.nextLSN - 1
			first := l.written + 1
			doSync := needSync || l.o.Policy == FsyncBatch
			l.mu.Unlock()
			fsyncs, err := l.writeOut(batch, records, first, doSync)
			l.mu.Lock()
			l.writing = false
			// The device copied the batch: its buffer serves the next
			// leader's appenders, unless one outsized group commit grew it
			// past a segment's worth.
			if cap(batch) <= int(l.o.SegmentBytes) {
				l.spare = batch[:0]
			}
			l.fsyncs += fsyncs
			if err != nil {
				if l.werr == nil {
					l.werr = err
				}
			} else {
				l.written = upto
				if doSync && l.synced < upto {
					l.synced = upto
				}
				if len(batch) > 0 {
					l.groupCommits++
					l.bytes += uint64(len(batch))
				}
			}
			l.cond.Broadcast()
			continue
		}
		l.cond.Wait()
	}
}

// writeOut is the leader body: rotate if due, write the whole buffered
// batch with one device write, fsync if asked. Leader-owned segment
// state; see the segment type's ownership note.
func (l *Log) writeOut(batch []byte, records, firstLSN uint64, doSync bool) (fsyncs uint64, err error) {
	cur := l.segs[len(l.segs)-1]
	if len(batch) > 0 && (l.rotate || (cur.records > 0 && cur.size+int64(len(batch)) > l.o.SegmentBytes)) {
		// Rotation barrier: the finished segment is synced before a
		// successor exists (except with fsync off), so a non-final
		// segment can only be torn by lying hardware — which the chained
		// prevTail check still catches.
		if l.o.Policy != FsyncOff {
			if err := iomodel.Sync(cur.dev); err != nil {
				return fsyncs, fmt.Errorf("wal: syncing segment %d at rotation: %w", cur.index, err)
			}
			fsyncs++
		}
		next, err := l.newSegment(cur.index+1, firstLSN, cur.last())
		if err != nil {
			return fsyncs, err
		}
		l.rotate = false
		l.segs = append(l.segs, next)
		cur = next
	}
	if len(batch) > 0 {
		if _, err := cur.dev.WriteAt(batch, cur.size); err != nil {
			return fsyncs, fmt.Errorf("wal: writing segment %d: %w", cur.index, err)
		}
		cur.size += int64(len(batch))
		cur.records += records
	}
	if doSync && l.o.Policy != FsyncOff {
		if err := iomodel.Sync(cur.dev); err != nil {
			return fsyncs, fmt.Errorf("wal: syncing segment %d: %w", cur.index, err)
		}
		fsyncs++
	}
	return fsyncs, nil
}

// Sync flushes buffered records and fsyncs the tail, regardless of
// policy (FsyncOff still skips the device sync — off means off).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.commit(l.nextLSN-1, true)
}

func (l *Log) intervalSyncer() {
	defer l.tickerWG.Done()
	t := time.NewTicker(l.o.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && l.werr == nil && l.synced < l.nextLSN-1 {
				l.commit(l.nextLSN-1, true)
			}
			l.mu.Unlock()
		}
	}
}

// TailLSN returns the last assigned LSN (0 before the first append).
func (l *Log) TailLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// DurableLSN returns the last LSN known to be on stable storage.
func (l *Log) DurableLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.synced
}

// SkipTo advances the LSN cursor past lsn when the log is behind it —
// the recovery case where a checkpoint covers records the (corrupt or
// deleted) log no longer holds. The next append gets lsn+1 or later in a
// fresh segment, so replayed and checkpoint-covered LSN ranges can never
// collide.
func (l *Log) SkipTo(lsn uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.writing {
		l.cond.Wait()
	}
	if l.nextLSN <= lsn {
		l.nextLSN = lsn + 1
		// The skipped range is covered elsewhere (that is the point), so
		// the cursors treat it as already written and durable; the next
		// leader's segment base must be lsn+1, not the stale tail.
		l.written = lsn
		l.synced = lsn
		l.rotate = true
	}
}

// Replay streams every intact record with LSN > after, in LSN order, to
// fn; a non-nil fn error aborts and is returned. Call it before
// appending (the recovery sequence); replay concurrent with appends or
// truncation is not supported.
func (l *Log) Replay(after uint64, fn func(Record) error) error {
	l.mu.Lock()
	for l.writing {
		l.cond.Wait()
	}
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	segs := make([]segment, len(l.segs))
	for i, s := range l.segs {
		segs[i] = *s
	}
	l.mu.Unlock()

	var ferr error
	for _, s := range segs {
		if s.records == 0 || s.last() <= after {
			continue
		}
		base := s.base
		scanSegment(s.dev, s.size, func(ordinal, seq uint64, payload []byte) error {
			lsn := base + ordinal
			if lsn <= after {
				return nil
			}
			ups, err := stream.DecodeUpdates(payload)
			if err != nil {
				// CRC passed but the payload does not decode: corrupt
				// beyond what torn-tail tolerance explains.
				ferr = fmt.Errorf("wal: record %d: %w", lsn, err)
				return ferr
			}
			if err := fn(Record{LSN: lsn, Seq: seq, Updates: ups}); err != nil {
				ferr = err
				return err
			}
			return nil
		})
		if ferr != nil {
			return ferr
		}
	}
	return nil
}

// Truncate removes segments made redundant by a checkpoint covering
// every LSN up to covered. Only whole non-current segments are deleted;
// a fully-covered current segment is scheduled to rotate at the next
// append so the next checkpoint can remove it too.
func (l *Log) Truncate(covered uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	for l.writing {
		l.cond.Wait()
	}
	for len(l.segs) > 1 {
		s := l.segs[0]
		if s.last() > covered {
			break
		}
		s.dev.Close()
		if err := l.o.Storage.Remove(segName(s.index)); err != nil {
			return fmt.Errorf("wal: removing covered segment %d: %w", s.index, err)
		}
		l.segs = l.segs[1:]
		l.truncas++
	}
	if cur := l.segs[len(l.segs)-1]; cur.records > 0 && cur.last() <= covered {
		l.rotate = true
	}
	return nil
}

// Stats snapshots log statistics.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:          l.appends,
		Updates:          l.updates,
		Bytes:            l.bytes,
		Fsyncs:           l.fsyncs,
		GroupCommits:     l.groupCommits,
		Truncations:      l.truncas,
		Segments:         len(l.segs),
		TailLSN:          l.nextLSN - 1,
		DurableLSN:       l.synced,
		RecoveredRecords: l.recRecords,
		RecoveredTorn:    l.recTorn,
	}
}

// Close flushes buffered records, fsyncs the tail (unless the policy is
// off), and releases every segment device. Further appends return
// ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	// Refuse new appends first: every record buffered so far has LSN ≤
	// the flush target below, so no waiter can outlive the flush, and no
	// new leader can start once it completes — the devices close with no
	// writer in flight.
	l.closed = true
	close(l.stop)
	flushErr := l.commit(l.nextLSN-1, l.o.Policy != FsyncOff)
	for l.writing {
		l.cond.Wait()
	}
	errs := []error{flushErr}
	for _, s := range l.segs {
		errs = append(errs, s.dev.Close())
	}
	l.mu.Unlock()
	l.tickerWG.Wait()
	return errors.Join(errs...)
}
