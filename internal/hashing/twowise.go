package hashing

import "math/bits"

// MersennePrime61 is 2^61 - 1, the modulus of the 2-wise-independent
// family below. Any input below the prime hashes without bias.
const MersennePrime61 = (1 << 61) - 1

// TwoWise is a 2-wise-independent hash function h(x) = (a*x + b) mod p for
// p = 2^61 - 1, mapping 61-bit inputs to 61-bit outputs. It backs the
// theoretical guarantees of both samplers in tests; the production sketch
// path hashes with Mix64 (two multiplies, xxhash.go) for speed, where the
// paper's implementation uses xxHash.
type TwoWise struct {
	A, B uint64
}

// NewTwoWise derives a TwoWise function deterministically from a seed. The
// coefficient a is forced nonzero so the function is never constant.
func NewTwoWise(seed uint64) TwoWise {
	a := Uint64(seed, 0x74a11) % MersennePrime61
	if a == 0 {
		a = 1
	}
	b := Uint64(seed, 0x2b1a5e) % MersennePrime61
	return TwoWise{A: a, B: b}
}

// Hash evaluates the function at x. Inputs are reduced mod 2^61-1 first.
func (t TwoWise) Hash(x uint64) uint64 {
	x = mod61(x)
	hi, lo := bits.Mul64(t.A, x)
	s := mod61of128(hi, lo) + t.B
	return mod61(s)
}

// mod61 reduces a 64-bit value modulo 2^61 - 1.
func mod61(x uint64) uint64 {
	x = (x >> 61) + (x & MersennePrime61)
	if x >= MersennePrime61 {
		x -= MersennePrime61
	}
	return x
}

// mod61of128 reduces a 128-bit value (hi, lo) modulo 2^61 - 1 using the
// identity 2^64 ≡ 2^3 (mod 2^61-1).
func mod61of128(hi, lo uint64) uint64 {
	// x = hi*2^64 + lo ≡ hi*8 + lo (mod 2^61-1), with hi*8 up to 2^67,
	// so fold twice.
	hiHi, hiLo := bits.Mul64(hi, 8)
	s := mod61(hiLo) + mod61(lo)
	s = mod61(s)
	if hiHi != 0 {
		// hiHi can be at most 7; contribute hiHi * 2^64 ≡ hiHi * 8.
		s = mod61(s + hiHi*8)
	}
	return s
}
