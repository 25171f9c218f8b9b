package cubesketch

import (
	"fmt"
	"math/bits"

	"graphzeppelin/internal/hashing"
)

// scatterMax is the batch length up to which xorBatch scatters straight
// into the bucket arrays; longer batches accumulate on the stack first.
// Fixed by BenchmarkSlabApply with each regime forced (23 rows, ns/index,
// README "Query cost model"): scatter 229 / 222 / 222 / 221 against
// accumulate 284 / 225 / 221 / 206 at 40 / 96 / 128 / 192 indices — a tie
// at 128, and the accumulators' fixed cost per column only loses below it.
const scatterMax = 128

// xorBatch is the bucket-XOR kernel behind Sketch.UpdateBatch and
// Slab.Apply: it toggles every index of batch in len(seeds) consecutive
// columns of rows buckets each, column k hashing with seeds[k] and owning
// alphas/gammas[k*rows:(k+1)*rows]. The columns of one sketch, or of all
// rounds of one slab node, are such a run. The result is bucket-identical
// to Sketch.Update per (column, index) because XOR commutes.
//
// Columns are taken four at a time, one pass over the batch hashing each
// index under four seeds: the four hash chains and the four bucket
// read-modify-writes are independent, so they overlap where a single
// column would serialize on its row-0 bucket, which takes half of all
// indices. Where the toggles go is the regime. Up to scatterMax indices
// they go straight to the arena: four columns' buckets are a handful of
// cache lines, and nothing is set up or torn down per column. Longer
// batches pay for zeroing stack accumulators and landing them on the arena
// afterwards, and in return the inner loop indexes fixed 64-entry stack
// arrays with a 6-bit value: no bounds checks and no slice headers to keep
// in registers. Leftover columns (fewer than four) scatter one by one.
//
// An out-of-range index panics before any bucket is written.
func xorBatch(n uint64, rows int, seeds, alphas []uint64, gammas []uint32, batch []uint64) {
	for _, idx := range batch {
		if idx >= n {
			panic(fmt.Sprintf("cubesketch: index %d out of range for n=%d", idx, n))
		}
	}
	// A hash's bucket is row min(trailing zeros, rows-1). ORing in a
	// sentinel bit at rows-1 makes the trailing-zero count clamp itself.
	// (With 65 or 66 rows the shift yields 0 and the count's own bound of
	// 64 is the clamp; such cascades do not fit the accumulators.)
	sentinel := uint64(1) << (rows - 1)
	k := 0
	if len(batch) <= scatterMax || rows > 64 {
		for ; k+4 <= len(seeds); k += 4 {
			s0, s1, s2, s3 := seeds[k], seeds[k+1], seeds[k+2], seeds[k+3]
			a0, g0 := alphas[k*rows:(k+1)*rows], gammas[k*rows:(k+1)*rows]
			a1, g1 := alphas[(k+1)*rows:(k+2)*rows], gammas[(k+1)*rows:(k+2)*rows]
			a2, g2 := alphas[(k+2)*rows:(k+3)*rows], gammas[(k+2)*rows:(k+3)*rows]
			a3, g3 := alphas[(k+3)*rows:(k+4)*rows], gammas[(k+3)*rows:(k+4)*rows]
			for _, idx := range batch {
				h0 := hashing.Mix64(s0, idx)
				h1 := hashing.Mix64(s1, idx)
				h2 := hashing.Mix64(s2, idx)
				h3 := hashing.Mix64(s3, idx)
				d0 := bits.TrailingZeros64(h0 | sentinel)
				d1 := bits.TrailingZeros64(h1 | sentinel)
				d2 := bits.TrailingZeros64(h2 | sentinel)
				d3 := bits.TrailingZeros64(h3 | sentinel)
				a0[d0] ^= idx + 1
				g0[d0] ^= uint32(h0 >> 32)
				a1[d1] ^= idx + 1
				g1[d1] ^= uint32(h1 >> 32)
				a2[d2] ^= idx + 1
				g2[d2] ^= uint32(h2 >> 32)
				a3[d3] ^= idx + 1
				g3[d3] ^= uint32(h3 >> 32)
			}
		}
	} else {
		var aAcc [4][64]uint64
		var gAcc [4][64]uint32
		for ; k+4 <= len(seeds); k += 4 {
			s0, s1, s2, s3 := seeds[k], seeds[k+1], seeds[k+2], seeds[k+3]
			for lane := range aAcc {
				clear(aAcc[lane][:rows])
				clear(gAcc[lane][:rows])
			}
			for _, idx := range batch {
				h0 := hashing.Mix64(s0, idx)
				h1 := hashing.Mix64(s1, idx)
				h2 := hashing.Mix64(s2, idx)
				h3 := hashing.Mix64(s3, idx)
				// Bit 63 changes no depth (the sentinel sits at or below
				// it) but shows the compiler a nonzero operand, which drops
				// the zero-input fix-up after the bit scan.
				d0 := bits.TrailingZeros64(h0|sentinel|1<<63) & 63
				d1 := bits.TrailingZeros64(h1|sentinel|1<<63) & 63
				d2 := bits.TrailingZeros64(h2|sentinel|1<<63) & 63
				d3 := bits.TrailingZeros64(h3|sentinel|1<<63) & 63
				aAcc[0][d0] ^= idx + 1
				gAcc[0][d0] ^= uint32(h0 >> 32)
				aAcc[1][d1] ^= idx + 1
				gAcc[1][d1] ^= uint32(h1 >> 32)
				aAcc[2][d2] ^= idx + 1
				gAcc[2][d2] ^= uint32(h2 >> 32)
				aAcc[3][d3] ^= idx + 1
				gAcc[3][d3] ^= uint32(h3 >> 32)
			}
			for lane := range aAcc {
				a := alphas[(k+lane)*rows : (k+lane+1)*rows]
				g := gammas[(k+lane)*rows : (k+lane+1)*rows]
				for i := range a {
					a[i] ^= aAcc[lane][i&63]
					g[i] ^= gAcc[lane][i&63]
				}
			}
		}
	}
	for ; k < len(seeds); k++ {
		cs := seeds[k]
		a := alphas[k*rows : (k+1)*rows]
		g := gammas[k*rows : (k+1)*rows]
		for _, idx := range batch {
			h := hashing.Mix64(cs, idx)
			d := bits.TrailingZeros64(h | sentinel)
			a[d] ^= idx + 1
			g[d] ^= uint32(h >> 32)
		}
	}
}
