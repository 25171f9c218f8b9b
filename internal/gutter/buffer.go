package gutter

import (
	"sync"

	"graphzeppelin/internal/stream"
)

// Buffer is the ingestion buffering structure the engine drives: edge
// updates go in, node-keyed batches come out through the Sink the
// implementation was built with.
//
// All implementations are multi-producer safe: any number of goroutines
// may call InsertEdges and InsertHalves concurrently (the engine's Ingestor
// sessions flush into the buffer from arbitrary producer goroutines).
// Flush may also run concurrently with inserts, though the usual caller —
// the engine's quiescent drain — excludes producers first. Sink callbacks
// are the implementation's to serialize or not; the engine serializes
// per-shard queue pushes itself.
//
// Implementations: LeafGutters (in-RAM, stripe-locked, the default), Tree
// (disk-backed gutter tree, single-locked — the disk is the bottleneck
// there anyway), and Unbuffered (no batching; the f→0 ablation).
type Buffer interface {
	// InsertEdges buffers a batch of edge updates, each under both
	// endpoints, emitting batches to the sink as gutters fill. Internal
	// locking is amortized across the batch; a single update is a batch
	// of one. Edges must be normalized (U < V) and in-range; the engine
	// validates before calling.
	InsertEdges(edges []stream.Edge) error
	// InsertHalves buffers each update (U, V) under U alone: the half of
	// an edge update an engine owning only some nodes keeps (U is the
	// node's buffer index, V the far endpoint as the sketch indexes it).
	InsertHalves(halves []stream.Edge) error
	// Flush forces every buffered update out to the sink (the cleanup
	// step before a connectivity query).
	Flush() error
	// Recycle returns a batch's Others slice for reuse once the consumer
	// is done with it. Safe to call from consumer goroutines.
	Recycle(buf []uint32)
	// Close releases the buffer's resources. Buffered updates are NOT
	// flushed; call Flush first to avoid dropping them.
	Close() error
}

// freelist recycles batch buffers between the consuming Graph Workers and
// the producing buffer, keeping the steady-state ingest path free of
// allocations. Buffers whose capacity no longer fits are dropped.
type freelist struct {
	mu   sync.Mutex
	bufs [][]uint32
	// max bounds the retained buffers; zero means freelistDefault.
	max int
}

// freelistDefault bounds a freelist whose owner emits batches as it goes,
// so only a queue's worth of buffers is ever out at once.
const freelistDefault = 64

// get returns an empty buffer with at least the given capacity,
// preferring a recycled one. Undersized entries are kept for later,
// smaller requests (the gutter tree emits variable-size leaf batches):
// that list is small, so the first-fit scan is cheap. The leaf gutters'
// list can be long, but every buffer in it fits every request, so the
// scan stops at the first entry.
func (f *freelist) get(capacity int) []uint32 {
	f.mu.Lock()
	for i := len(f.bufs) - 1; i >= 0; i-- {
		if cap(f.bufs[i]) < capacity {
			continue
		}
		buf := f.bufs[i]
		last := len(f.bufs) - 1
		f.bufs[i] = f.bufs[last]
		f.bufs[last] = nil
		f.bufs = f.bufs[:last]
		f.mu.Unlock()
		return buf[:0]
	}
	f.mu.Unlock()
	return make([]uint32, 0, capacity)
}

// put returns a buffer to the freelist, dropping it when the list is at
// its bound.
func (f *freelist) put(buf []uint32) {
	if cap(buf) == 0 {
		return
	}
	limit := f.max
	if limit == 0 {
		limit = freelistDefault
	}
	f.mu.Lock()
	if len(f.bufs) < limit {
		f.bufs = append(f.bufs, buf[:0])
	}
	f.mu.Unlock()
}

// Unbuffered is the trivial Buffer: every update is emitted immediately as
// a one-element batch, the f→0 extreme of Figure 15. Useful for tests and
// for quantifying what the gutters buy. It keeps no per-node state, so
// concurrent producers need no locking here; the sink sees one call per
// endpoint update.
type Unbuffered struct {
	sink Sink
	free freelist
}

// NewUnbuffered returns a Buffer that forwards every update straight to
// the sink.
func NewUnbuffered(sink Sink) *Unbuffered {
	return &Unbuffered{sink: sink}
}

// InsertEdges emits every edge (u,v) as two single-update batches, (u,v)
// and (v,u).
func (u *Unbuffered) InsertEdges(edges []stream.Edge) error {
	for _, e := range edges {
		u.sink(Batch{Node: e.U, Others: append(u.free.get(1), e.V)})
		u.sink(Batch{Node: e.V, Others: append(u.free.get(1), e.U)})
	}
	return nil
}

// InsertHalves emits every half as one single-update batch.
func (u *Unbuffered) InsertHalves(halves []stream.Edge) error {
	for _, h := range halves {
		u.sink(Batch{Node: h.U, Others: append(u.free.get(1), h.V)})
	}
	return nil
}

// Flush is a no-op: nothing is ever held back.
func (u *Unbuffered) Flush() error { return nil }

// Recycle returns a batch buffer for reuse.
func (u *Unbuffered) Recycle(buf []uint32) { u.free.put(buf) }

// Close releases nothing; Unbuffered holds no resources.
func (u *Unbuffered) Close() error { return nil }
