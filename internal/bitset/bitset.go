// Package bitset provides a dense, single-goroutine bit vector. It backs
// the adjacency-matrix correctness reference of Section 6.3 (the paper
// compares GraphZeppelin's answers against "an in-memory adjacency matrix
// stored as a bit vector"), edge-deduplication in the Kronecker generator,
// and the benchmark's final edge set. The engine's change tracking is not a
// bit vector: it keeps one change stamp per node (internal/core).
package bitset

import "math/bits"

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
