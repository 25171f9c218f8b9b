package iomodel

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrInjected is the error FaultDevice returns once armed.
var ErrInjected = errors.New("iomodel: injected fault")

// FaultDevice wraps a Device and starts failing after a configured number
// of operations — the failure-injection hook the robustness tests use to
// verify that disk errors surface through the engine instead of silently
// corrupting sketches.
type FaultDevice struct {
	Inner Device
	// FailAfter is the number of successful operations (reads+writes)
	// before every subsequent operation fails.
	failAfter int64
	ops       atomic.Int64
}

// NewFault wraps inner, allowing failAfter successful operations.
func NewFault(inner Device, failAfter int64) *FaultDevice {
	return &FaultDevice{Inner: inner, failAfter: failAfter}
}

func (d *FaultDevice) broken() bool {
	return d.ops.Add(1) > d.failAfter
}

// ReadAt implements Device.
func (d *FaultDevice) ReadAt(p []byte, off int64) (int, error) {
	if d.broken() {
		return 0, ErrInjected
	}
	return d.Inner.ReadAt(p, off)
}

// WriteAt implements Device.
func (d *FaultDevice) WriteAt(p []byte, off int64) (int, error) {
	if d.broken() {
		return 0, ErrInjected
	}
	return d.Inner.WriteAt(p, off)
}

// Stats implements Device.
func (d *FaultDevice) Stats() Stats { return d.Inner.Stats() }

// BlockSize implements Device.
func (d *FaultDevice) BlockSize() int { return d.Inner.BlockSize() }

// Sync implements Syncer: it counts as an operation (so an armed fault
// also fails syncs) and passes through to the inner device otherwise.
func (d *FaultDevice) Sync() error {
	if d.broken() {
		return ErrInjected
	}
	return Sync(d.Inner)
}

// Close implements Device.
func (d *FaultDevice) Close() error { return d.Inner.Close() }

// PowerCutDevice models the storage stack a power cut actually tears
// through: WriteAt lands in a volatile cache (immediately visible to
// reads, like the OS page cache), Sync moves everything buffered so far
// onto the persistent image, and Cut simulates the power failure —
// unsynced writes are discarded except for a chosen fully-persisted
// prefix plus, optionally, a block-granular torn prefix of the first
// lost write (disks persist whole blocks, not arbitrary byte ranges).
// Sync itself can be sabotaged: a "lost" sync reports success while
// persisting nothing (lying hardware), a "failed" sync returns an error.
// WAL replay tests drive randomized cuts through this device to prove
// torn-tail truncation never resurrects half-written records.
type PowerCutDevice struct {
	block int

	mu        sync.Mutex
	persisted []byte    // the image that survives Cut
	view      []byte    // what ReadAt observes: persisted + unsynced writes
	journal   []pcWrite // unsynced writes, in order
	// journalData backs every journal entry's bytes, appended in order and
	// reset with the journal, so a device synced as often as it is written
	// copies each write without allocating.
	journalData []byte
	loseSyncs   int
	failSyncs   int

	counters
}

// pcWrite is one unsynced write: data is the copy WriteAt took, a slice
// of journalData.
type pcWrite struct {
	off  int64
	data []byte
}

// NewPowerCut returns an empty power-cut device.
func NewPowerCut(blockSize int) *PowerCutDevice {
	return NewPowerCutFrom(nil, blockSize)
}

// NewPowerCutFrom returns a power-cut device whose persistent image
// starts as a copy of image — the "disk after reboot" constructor the
// crash-recovery tests reopen storage through.
func NewPowerCutFrom(image []byte, blockSize int) *PowerCutDevice {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	return &PowerCutDevice{
		block:     blockSize,
		persisted: append([]byte(nil), image...),
		view:      append([]byte(nil), image...),
	}
}

// growTo extends b to end bytes, zero-filled, at least doubling the
// capacity when it must reallocate, so an image that grows by appends
// reallocates O(log size) times.
func growTo(b []byte, end int64) []byte {
	n := int64(len(b))
	if n >= end {
		return b
	}
	if int64(cap(b)) < end {
		nb := make([]byte, n, max(end, 2*int64(cap(b))))
		copy(nb, b)
		b = nb
	}
	b = b[:end]
	clear(b[n:])
	return b
}

// ReadAt implements Device; reads observe unsynced writes, as through a
// page cache.
func (d *PowerCutDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	d.view = growTo(d.view, off+int64(len(p)))
	n := copy(p, d.view[off:])
	d.mu.Unlock()
	d.record(false, n, off, d.block)
	return n, nil
}

// WriteAt implements Device; the write is volatile until the next
// successful Sync.
func (d *PowerCutDevice) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	d.view = growTo(d.view, off+int64(len(p)))
	n := copy(d.view[off:], p)
	start := len(d.journalData)
	d.journalData = append(d.journalData, p...)
	// A reallocation above leaves earlier entries on the old array, whose
	// bytes are never written again.
	d.journal = append(d.journal, pcWrite{off: off, data: d.journalData[start:len(d.journalData):len(d.journalData)]})
	d.mu.Unlock()
	d.record(true, n, off, d.block)
	return n, nil
}

// Sync implements Syncer. Armed faults fire first: a failed sync returns
// ErrInjected persisting nothing, a lost sync returns nil persisting
// nothing (the journal stays, so a later honest Sync still persists the
// writes — only an intervening Cut loses them).
func (d *PowerCutDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failSyncs > 0 {
		d.failSyncs--
		return ErrInjected
	}
	if d.loseSyncs > 0 {
		d.loseSyncs--
		return nil
	}
	d.persisted = append(d.persisted[:0], d.view...)
	d.journal = d.journal[:0]
	d.journalData = d.journalData[:0]
	return nil
}

// FailSyncs arms the next n Sync calls to return ErrInjected.
func (d *PowerCutDevice) FailSyncs(n int) {
	d.mu.Lock()
	d.failSyncs = n
	d.mu.Unlock()
}

// LoseSyncs arms the next n Sync calls to report success without
// persisting anything.
func (d *PowerCutDevice) LoseSyncs(n int) {
	d.mu.Lock()
	d.loseSyncs = n
	d.mu.Unlock()
}

// UnsyncedWrites returns how many writes a Cut would lose — the
// randomized crash harness picks its cut point below this.
func (d *PowerCutDevice) UnsyncedWrites() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.journal)
}

// CutImage computes the post-crash persistent image without disturbing
// the live device: the synced image, plus the first keep unsynced writes
// in full, plus tornBytes (rounded down to a whole number of blocks) of
// the next write. The live device keeps running — callers snapshot the
// crash outcome while the "dying" process is still issuing I/O, then
// reopen storage from the image.
func (d *PowerCutDevice) CutImage(keep, tornBytes int) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	img := append([]byte(nil), d.persisted...)
	if keep > len(d.journal) {
		keep = len(d.journal)
	}
	for _, w := range d.journal[:keep] {
		img = growTo(img, w.off+int64(len(w.data)))
		copy(img[w.off:], w.data)
	}
	if tornBytes > 0 && keep < len(d.journal) {
		w := d.journal[keep]
		torn := tornBytes - tornBytes%d.block
		if torn > len(w.data) {
			torn = len(w.data)
		}
		if torn > 0 {
			img = growTo(img, w.off+int64(torn))
			copy(img[w.off:], w.data[:torn])
		}
	}
	return img
}

// Cut applies the power failure in place: the persistent image becomes
// CutImage(keep, tornBytes), everything else is lost, and the device
// restarts clean (no journal, reads observe only what survived).
func (d *PowerCutDevice) Cut(keep, tornBytes int) {
	img := d.CutImage(keep, tornBytes)
	d.mu.Lock()
	d.persisted = img
	d.view = append([]byte(nil), img...)
	d.journal, d.journalData = nil, nil
	d.mu.Unlock()
}

// Size returns the current byte length reads observe (the "file size"
// a reopening scanner sees).
func (d *PowerCutDevice) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.view))
}

// Stats implements Device.
func (d *PowerCutDevice) Stats() Stats { return d.counters.stats() }

// BlockSize implements Device.
func (d *PowerCutDevice) BlockSize() int { return d.block }

// Close implements Device.
func (d *PowerCutDevice) Close() error { return nil }
