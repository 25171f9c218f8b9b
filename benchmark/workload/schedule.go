package workload

import (
	"math/rand/v2"

	"graphzeppelin/internal/bitset"
	"graphzeppelin/internal/stream"
)

// Trickles returns count small update batches of size updates each that
// alternately attach one of the stream's reserved nodes to the rest of
// the graph and detach it again: batch 2k inserts edges from the node to
// size others, batch 2k+1 deletes exactly those. The stream never
// touches a reserved node, so the trickles stay well formed wherever
// they are interleaved with it, and every trickle changes the component
// partition: the node is a singleton before the attach and after the
// detach.
//
// One reserved node per trickle, not several dirty nodes on that side:
// two dirty nodes that happen to be neighbours in the engine's cached
// spanning forest send the delta query down its slower path, and whether
// a run's median then sits in one mode or the other depends on the seed.
func Trickles(s Stream, count, size int, seed uint64) [][]stream.Update {
	rng := rand.New(rand.NewPCG(seed, 0x747269636b))
	off := make([]bool, s.NumNodes) // reserved or disconnected
	for _, v := range s.Reserved {
		off[v] = true
	}
	for _, v := range s.Disconnected {
		off[v] = true
	}
	var rest []uint32
	for v := uint32(0); v < s.NumNodes; v++ {
		if !off[v] {
			rest = append(rest, v)
		}
	}
	out := make([][]stream.Update, count)
	for i := 0; i < count; i += 2 {
		node := s.Reserved[(i/2)%len(s.Reserved)]
		attach := make([]stream.Update, size)
		for j, k := range rng.Perm(len(rest))[:size] {
			attach[j] = stream.Update{Edge: stream.Edge{U: node, V: rest[k]}.Normalize(), Type: stream.Insert}
		}
		out[i] = attach
		if i+1 < count {
			detach := make([]stream.Update, size)
			for j, u := range attach {
				detach[j] = stream.Update{Edge: u.Edge, Type: stream.Delete}
			}
			out[i+1] = detach
		}
	}
	return out
}

// SliceBounds cuts n updates into the given number of near-equal slices
// and returns the i-th one's half-open range.
func SliceBounds(n, slices, i int) (lo, hi int) {
	return n * i / slices, n * (i + 1) / slices
}

// Bits is a plain bit vector, one bit per stream position.
type Bits []uint64

// FlipBits marks the updates whose type flips on an even pass: those
// whose edge is in the pass's final edge set (see Stream).
func FlipBits(s Stream) Bits {
	n := uint64(s.NumNodes)
	final := bitset.New(stream.VectorLen(n))
	for _, e := range s.Final {
		final.Set(stream.EdgeIndex(n, e))
	}
	flip := make(Bits, (len(s.Updates)+63)/64)
	for i, u := range s.Updates {
		if final.Test(stream.EdgeIndex(n, u.Edge)) {
			flip[i/64] |= 1 << (i % 64)
		}
	}
	return flip
}

// FlipTypes rewrites ups[lo:hi] in place from an odd pass's types to an
// even pass's, or back.
func FlipTypes(ups []stream.Update, flip Bits, lo, hi int) {
	for i := lo; i < hi; i++ {
		if flip[i/64]>>(i%64)&1 == 1 {
			ups[i].Type ^= 1
		}
	}
}
