// Package hashing provides the seeded hash functions used throughout
// GraphZeppelin: a pure-Go implementation of the xxHash64 algorithm (the
// hash the paper's system uses for bucket membership and checksums) and a
// provably 2-wise-independent multiply-shift family used by the standard
// l0-sampler baseline and by the property tests.
package hashing

import (
	"encoding/binary"
	"math/bits"
)

// xxHash64 constants, from the xxHash specification.
const (
	prime64x1 = 0x9E3779B185EBCA87
	prime64x2 = 0xC2B2AE3D27D4EB4F
	prime64x3 = 0x165667B19E3779F9
	prime64x4 = 0x85EBCA77C2B2AE63
	prime64x5 = 0x27D4EB2F165667C5
)

// XXH64 computes the 64-bit xxHash of b with the given seed.
func XXH64(seed uint64, b []byte) uint64 {
	n := len(b)
	var h uint64

	if n >= 32 {
		v1 := seed + prime64x1 + prime64x2
		v2 := seed + prime64x2
		v3 := seed
		v4 := seed - prime64x1
		for len(b) >= 32 {
			v1 = round64(v1, binary.LittleEndian.Uint64(b[0:8]))
			v2 = round64(v2, binary.LittleEndian.Uint64(b[8:16]))
			v3 = round64(v3, binary.LittleEndian.Uint64(b[16:24]))
			v4 = round64(v4, binary.LittleEndian.Uint64(b[24:32]))
			b = b[32:]
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = mergeRound64(h, v1)
		h = mergeRound64(h, v2)
		h = mergeRound64(h, v3)
		h = mergeRound64(h, v4)
	} else {
		h = seed + prime64x5
	}

	h += uint64(n)

	for len(b) >= 8 {
		h ^= round64(0, binary.LittleEndian.Uint64(b[:8]))
		h = bits.RotateLeft64(h, 27)*prime64x1 + prime64x4
		b = b[8:]
	}
	if len(b) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(b[:4])) * prime64x1
		h = bits.RotateLeft64(h, 23)*prime64x2 + prime64x3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * prime64x5
		h = bits.RotateLeft64(h, 11) * prime64x1
	}

	return avalanche64(h)
}

// Uint64 hashes a single 64-bit value with the given seed. It is the
// xxHash64 of the value's 8-byte little-endian encoding, specialized to
// avoid the byte-slice round trip; this is the hot path for bucket
// membership and checksum computation.
func Uint64(seed, x uint64) uint64 {
	h := seed + prime64x5 + 8
	h ^= round64(0, x)
	h = bits.RotateLeft64(h, 27)*prime64x1 + prime64x4
	return avalanche64(h)
}

// Avalanche64 applies xxHash64's finalization avalanche: a cheap
// bijective mixer used to harden derived seeds (e.g. the per-column
// sketch seeds) so arithmetically related inputs become unrelated seeds.
func Avalanche64(h uint64) uint64 { return avalanche64(h) }

// Mix64 hashes a single 64-bit value with the given seed using two
// 128-bit multiply-mix rounds (the wyhash/rapidhash construction). It is
// not xxHash: it trades the longer xxHash dependency chain (~6 serial
// multiplies) for 2, which matters because the sketch update path performs
// one hash per (column, round, index) and is latency-bound. Statistical
// quality is validated by the same uniformity/avalanche tests as Uint64
// and, end to end, by the sketch reliability experiments.
func Mix64(seed, x uint64) uint64 {
	hi, lo := bits.Mul64(x^prime64x1, seed^prime64x2)
	hi, lo = bits.Mul64(lo^prime64x3, hi^seed)
	return hi ^ lo
}

func round64(acc, input uint64) uint64 {
	acc += input * prime64x2
	acc = bits.RotateLeft64(acc, 31)
	return acc * prime64x1
}

func mergeRound64(acc, val uint64) uint64 {
	val = round64(0, val)
	acc ^= val
	return acc*prime64x1 + prime64x4
}

func avalanche64(h uint64) uint64 {
	h ^= h >> 33
	h *= prime64x2
	h ^= h >> 29
	h *= prime64x3
	h ^= h >> 32
	return h
}
