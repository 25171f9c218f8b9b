// Package gutter implements GraphZeppelin's buffering substrate
// (Sections 4 and 5.1): the multi-producer Buffer interface with its
// in-RAM stripe-locked leaf gutters, disk-backed gutter tree and
// unbuffered implementations, and the per-shard single-consumer queues
// between the buffering system and the Graph Workers. All of these deal
// in node-keyed batches: because CubeSketch operates over Z_2, an
// insertion and a deletion of the same edge are the identical toggle, so
// a buffered update is just "the other endpoint".
package gutter

import (
	"runtime"
	"sync/atomic"
	"time"
)

// CacheLine is the assumed coherence granularity. Hot fields written by
// different cores are padded apart by this much so a store on one side
// never invalidates the other side's line (false sharing). 64 bytes is
// the line size of every x86-64 and most arm64 parts; on the few 128-byte
// platforms the cost is one extra clean line, not correctness.
const CacheLine = 64

// Batch is a group of buffered updates bound for one node's sketch: for
// node Node, each element of Others is the far endpoint of one edge update.
// PreCut is the consumer's mark, never set by a buffer: the engine sets it
// on a batch whose change it has already recorded, at a cut the batch
// counts as applied before, and hands to its workers after that cut.
type Batch struct {
	Node   uint32
	PreCut bool
	Others []uint32
}

// SPSC is a bounded lock-free single-producer/single-consumer batch queue:
// exactly one pusher at a time, exactly one Graph Worker popping. With
// multiple ingest producers the engine serializes pushes per shard with a
// mutex taken once per emitted batch (hundreds of updates), which
// preserves the queue's single-producer contract while keeping the
// per-update path lock-free; the mutex's release/acquire also provides
// the happens-before edge between successive pushers. Pushes block
// (spinning, then yielding, then briefly sleeping) while the queue is
// full, bounding the memory between the buffering stage and the workers
// as in Section 5.1; a consumer that finds the queue empty spins briefly
// and then parks on a channel, so idle workers cost nothing.
//
// Layout: the consumer-written head and the producer-written tail live on
// separate cache lines, each packaged with that side's *private* cache of
// the opposite index. The producer re-reads head only when the queue looks
// full against its cached copy, and the consumer re-reads tail only when
// it looks empty, so the steady-state push/pop pair costs one cross-core
// cache-line transfer per index wrap instead of one per operation.
type SPSC struct {
	// Shared read-mostly geometry (written once at construction).
	buf      []Batch
	mask     uint64
	capacity uint64 // logical bound; may be below len(buf)
	_        [CacheLine]byte

	// Consumer line: head plus the consumer's private cache of tail.
	head       atomic.Uint64 // next slot to pop; advanced only by the consumer
	cachedTail uint64        // consumer-private; refreshed on apparent-empty
	_          [CacheLine - 16]byte

	// Producer line: tail plus the producer's private cache of head.
	tail       atomic.Uint64 // next slot to push; advanced only by the producer
	cachedHead uint64        // producer-private; refreshed on apparent-full
	_          [CacheLine - 16]byte

	// Control plane (rarely touched).
	closed   atomic.Bool
	sleeping atomic.Bool   // consumer is parked (or about to park) on wake
	wake     chan struct{} // capacity 1; producer/Close signal a parked consumer
}

// NewSPSC returns a queue holding at most capacity batches (minimum 1).
// The ring is sized to the next power of two, but the logical capacity is
// exact, so per-shard queues can share a global batch budget precisely.
func NewSPSC(capacity int) *SPSC {
	if capacity < 1 {
		capacity = 1
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	return &SPSC{
		buf:      make([]Batch, size),
		mask:     uint64(size - 1),
		capacity: uint64(capacity),
		wake:     make(chan struct{}, 1),
	}
}

// backoff yields the processor while a push or pop cannot make progress.
// On a single-CPU host the other side cannot run until we get off the
// core, so the wait escalates to real sleeps; on a multi-core host the
// other side is (or can be) running right now, so we keep yielding and cap
// the sleep tier at 10µs — the old 200µs tier added milliseconds of
// wake-up latency to briefly-stalled workers, which flattens any scaling
// curve measured across them. multicore is GOMAXPROCS(0) > 1, read once per
// blocked call by the caller: GOMAXPROCS takes the scheduler lock, which a
// read per spin contends on.
func backoff(spins *int, multicore bool) {
	*spins++
	switch {
	case *spins < 64:
		runtime.Gosched()
	case multicore && *spins < 1024:
		runtime.Gosched()
	case multicore:
		time.Sleep(10 * time.Microsecond)
	case *spins < 256:
		time.Sleep(10 * time.Microsecond)
	default:
		time.Sleep(200 * time.Microsecond)
	}
}

// Push enqueues b, blocking while the queue is full. It returns false if
// the queue has been closed.
func (q *SPSC) Push(b Batch) bool {
	spins, multicore := 0, false
	for {
		if q.closed.Load() {
			return false
		}
		t := q.tail.Load()
		// Fast path: judge fullness against the producer's cached head;
		// only an apparently full queue pays the cross-core head load.
		if t-q.cachedHead >= q.capacity {
			q.cachedHead = q.head.Load()
			if t-q.cachedHead >= q.capacity {
				if spins == 0 {
					multicore = runtime.GOMAXPROCS(0) > 1
				}
				backoff(&spins, multicore)
				continue
			}
		}
		q.buf[t&q.mask] = b
		q.tail.Store(t + 1) // publishes the slot to the consumer
		if q.sleeping.Load() {
			q.signal()
		}
		return true
	}
}

// signal delivers a non-blocking wake-up token to a parked consumer.
func (q *SPSC) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// Pop dequeues a batch, blocking while the queue is empty. ok is false
// once the queue is closed and drained.
func (q *SPSC) Pop() (b Batch, ok bool) {
	spins := 0
	for {
		h := q.head.Load()
		// Fast path: judge emptiness against the consumer's cached tail;
		// a run of queued batches costs one cross-core tail load total.
		if h == q.cachedTail {
			q.cachedTail = q.tail.Load()
		}
		if h != q.cachedTail {
			b = q.buf[h&q.mask]
			q.buf[h&q.mask] = Batch{}
			q.head.Store(h + 1) // frees the slot for the producer
			return b, true
		}
		if q.closed.Load() && h == q.tail.Load() {
			return Batch{}, false
		}
		if spins < 128 {
			spins++
			runtime.Gosched()
			continue
		}
		// Park. The sleeping flag is set before the re-check, and the
		// producer re-reads it after publishing, so a publish between our
		// re-check and the receive is guaranteed to send a token — no
		// lost wake-up. A stale token only causes one spurious loop turn.
		q.sleeping.Store(true)
		if q.head.Load() != q.tail.Load() || q.closed.Load() {
			q.sleeping.Store(false)
			continue
		}
		<-q.wake
		q.sleeping.Store(false)
		spins = 0
	}
}

// Close wakes the blocked producer and consumer; subsequent pushes fail
// and pops drain remaining items then report !ok.
func (q *SPSC) Close() {
	q.closed.Store(true)
	q.signal()
}

// Len returns the number of queued batches (approximate under concurrency).
func (q *SPSC) Len() int {
	t, h := q.tail.Load(), q.head.Load()
	if t < h {
		return 0
	}
	return int(t - h)
}
