// Package bitset provides a dense bit vector. It backs the adjacency-matrix
// correctness reference of Section 6.3 (the paper compares GraphZeppelin's
// answers against "an in-memory adjacency matrix stored as a bit vector")
// and edge-deduplication in the Kronecker generator.
package bitset

import (
	"math/bits"
	"sync/atomic"
)

// Set is a fixed-capacity bit vector. The zero value is an empty set of
// capacity 0; use New.
type Set struct {
	words []uint64
	n     uint64
}

// New returns a Set of capacity n bits, all clear.
func New(n uint64) *Set {
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (s *Set) Len() uint64 { return s.n }

// Test reports whether bit i is set.
func (s *Set) Test(i uint64) bool {
	return s.words[i/64]&(1<<(i%64)) != 0
}

// Set sets bit i.
func (s *Set) Set(i uint64) { s.words[i/64] |= 1 << (i % 64) }

// Clear clears bit i.
func (s *Set) Clear(i uint64) { s.words[i/64] &^= 1 << (i % 64) }

// ClearAll clears every bit, keeping the capacity.
func (s *Set) ClearAll() { clear(s.words) }

// Flip toggles bit i and returns its new value.
func (s *Set) Flip(i uint64) bool {
	s.words[i/64] ^= 1 << (i % 64)
	return s.Test(i)
}

// Count returns the number of set bits.
func (s *Set) Count() uint64 {
	var c uint64
	for _, w := range s.words {
		c += uint64(bits.OnesCount64(w))
	}
	return c
}

// ForEach calls fn with the position of every set bit, in ascending order.
// fn returning false stops the iteration.
func (s *Set) ForEach(fn func(i uint64) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(uint64(wi*64 + b)) {
				return
			}
			w &= w - 1
		}
	}
}

// Bytes returns the memory footprint of the bit array in bytes.
func (s *Set) Bytes() int { return len(s.words) * 8 }

// OrInto ORs this set into dst (a plain Set of at least the same
// capacity) and returns the number of bits newly set in dst. The engine
// unions the per-seal dirty records of a checkpoint chain this way.
func (s *Set) OrInto(dst *Set) uint64 {
	var added uint64
	for wi, w := range s.words {
		if w == 0 {
			continue
		}
		added += uint64(bits.OnesCount64(w &^ dst.words[wi]))
		dst.words[wi] |= w
	}
	return added
}

// padWords pads an Atomic's word array on both sides so adjacent Atomics
// (one per ingest shard, allocated back to back) never share a cache line:
// the writer's word updates must not bounce a neighbor shard's hot lines.
const padWords = 8 // 64 bytes

// Atomic is a fixed-capacity bit vector safe for one concurrent writer
// (Set) and any number of concurrent readers (Test, Count, ForEach,
// OrInto). Writes use atomic OR, so a reader observes each bit's latest
// published value without tearing; the set of bits a reader sees is only
// guaranteed complete once the writer is quiescent. Clear requires full
// external exclusion (no concurrent Set). The engine's per-shard dirty
// tracking is exactly this shape: each shard's executing worker is the
// sole writer, Stats reads concurrently, and queries clear under the
// quiesce write lock with the workers idle.
type Atomic struct {
	buf []atomic.Uint64 // padWords | words | padWords
	n   uint64
}

// NewAtomic returns an Atomic of capacity n bits, all clear, padded so
// the live words share no cache line with a sibling allocation.
func NewAtomic(n uint64) *Atomic {
	return &Atomic{buf: make([]atomic.Uint64, (n+63)/64+2*padWords), n: n}
}

func (a *Atomic) words() []atomic.Uint64 {
	return a.buf[padWords : len(a.buf)-padWords]
}

// Len returns the capacity in bits.
func (a *Atomic) Len() uint64 { return a.n }

// Set sets bit i. Single writer at a time.
func (a *Atomic) Set(i uint64) {
	w := &a.words()[i/64]
	mask := uint64(1) << (i % 64)
	// Skip the RMW when the bit is already published — the common case for
	// a hot node receiving many batches between queries.
	if w.Load()&mask == 0 {
		w.Or(mask)
	}
}

// Test reports whether bit i is set.
func (a *Atomic) Test(i uint64) bool {
	return a.words()[i/64].Load()&(1<<(i%64)) != 0
}

// Count returns the number of set bits.
func (a *Atomic) Count() uint64 {
	var c uint64
	for i := range a.words() {
		c += uint64(bits.OnesCount64(a.words()[i].Load()))
	}
	return c
}

// ClearAll clears every bit. Callers must exclude concurrent writers.
func (a *Atomic) ClearAll() {
	ws := a.words()
	for i := range ws {
		ws[i].Store(0)
	}
}

// ForEach calls fn with the position of every set bit, in ascending
// order. fn returning false stops the iteration.
func (a *Atomic) ForEach(fn func(i uint64) bool) {
	ws := a.words()
	for wi := range ws {
		w := ws[wi].Load()
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !fn(uint64(wi*64 + b)) {
				return
			}
			w &= w - 1
		}
	}
}

// OrInto ORs this vector into dst (a plain Set of at least the same
// capacity) and returns the number of bits newly set in dst. The engine
// uses it to gather per-shard dirty vectors into one query-local set.
func (a *Atomic) OrInto(dst *Set) uint64 {
	var added uint64
	ws := a.words()
	for wi := range ws {
		w := ws[wi].Load()
		if w == 0 {
			continue
		}
		added += uint64(bits.OnesCount64(w &^ dst.words[wi]))
		dst.words[wi] |= w
	}
	return added
}
