package cubesketch

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"graphzeppelin/internal/hashing"
)

// Row derivation: one hash per round and index. g = Mix64(hs, idx) under
// the round's hash seed hs decides everything the round's columns need.
// Its high 32 bits are the checksum, shared by every column of the round.
// Column c's row is the trailing-zero count of a bit field of its own,
// clamped at rows-1 by a sentinel bit (rowsOf):
//
//   - column 0 reads g itself; with rows ≤ 33 the sentinel sits at or
//     below bit 32, so only g's low half can decide the row;
//   - columns c ≥ 1 read word(g, j), the high XOR low half of one more
//     128-bit product. Up to 33 rows each word holds two 32-bit fields,
//     its low half column 2j-1's and its high half column 2j's; above 33
//     rows a field needs more bits than half a word, and column c takes
//     all of word(g, c).
//
// At the default 7 columns and up to 33 rows (V ≤ 2^16) that is one Mix64
// and three more multiplies per (round, index), where a hash per column
// took seven Mix64s. Above 33 rows column 0's row reaches 32 only when g's
// low half is zero, so the checksum's low bits follow the row in 2^-32 of
// the indices; nothing else is shared.
//
// The fold matters: a field must not keep a trailing-zero count it was
// derived from. The low word of a product alone has tz(a·b) = tz(a) +
// tz(b), and a multiply by an odd constant keeps tz outright, so either
// would tie a column's row to g's (TestColumnFailuresIndependent fails
// both). The high half of the product carries the mixing, and XORing it
// in breaks the tie.
const (
	wordSalt = 0x9e3779b97f4a7c15 // odd; spreads j over g's bits
	wordMul  = 0xa0761d6478bd642f // odd; word j multiplies by wordMul+2j
)

// hashSeed derives a round's hash seed from its sketch seed. Avalanching
// keeps structured user seeds (small integers, linear combinations of
// salts) from ever landing on a degenerate Mix64 seed whose first multiply
// round is zero.
func hashSeed(seed uint64) uint64 { return hashing.Avalanche64(seed) }

// checksum is the checksum every column of a round stores for an index
// whose round hash is g.
func checksum(g uint64) uint32 { return uint32(g >> 32) }

// word returns word j ≥ 1 of the round hash g: the folded product of g
// with j's salt and multiplier.
func word(g uint64, j int) uint64 {
	hi, lo := bits.Mul64(g^uint64(j)*wordSalt, wordMul+2*uint64(j))
	return hi ^ lo
}

// rowsOf sets d[c] to column c's row, for every c < len(d), of an index
// whose round hash is g, in a cascade of rows rows. It is the one
// definition of where an index lands: Sketch.Update, the bucket-XOR
// kernel and the serialized-stack kernel all call it.
func rowsOf(g uint64, rows int, d []uint8) {
	if len(d) == 0 {
		return
	}
	// A field's row is min(trailing zeros, rows-1). ORing in a sentinel
	// bit at rows-1 makes the trailing-zero count clamp itself. (With 65
	// or 66 rows the shift yields 0 and the count's own bound of 64 is
	// the clamp.)
	sentinel := uint64(1) << (rows - 1)
	d[0] = uint8(bits.TrailingZeros64(g | sentinel))
	if rows > 33 {
		for c := 1; c < len(d); c++ {
			d[c] = uint8(bits.TrailingZeros64(word(g, c) | sentinel))
		}
		return
	}
	for c := 1; c < len(d); c += 2 {
		w := word(g, (c+1)/2)
		d[c] = uint8(bits.TrailingZeros64(w&(1<<32-1) | sentinel))
		if c+1 < len(d) {
			d[c+1] = uint8(bits.TrailingZeros64(w>>32 | sentinel))
		}
	}
}

// rowBuf returns a slice of cols row slots, backed by buf when it is big
// enough; so the kernels' scratch stays on the stack at any column count
// the engine uses.
func rowBuf(buf []uint8, cols int) []uint8 {
	if cols <= len(buf) {
		return buf[:cols]
	}
	return make([]uint8, cols)
}

// xorBatch is the bucket-XOR kernel behind Sketch.UpdateBatch and
// Slab.Apply: it toggles every index of batch in len(hashSeeds)
// consecutive rounds of stride = len(alphas)/len(hashSeeds) buckets (cols
// columns of rows), round r hashing with hashSeeds[r] and owning
// alphas/gammas[r*stride:(r+1)*stride]. One sketch, or all rounds of one
// slab node, is such a run. The result is bucket-identical to
// Sketch.Update per (round, index) because XOR commutes.
//
// Each round is one pass over the batch: one hash per index, whose rows
// (rowsOf) are the round's cols bucket writes. The writes are independent
// of each other, so they overlap where a single column would serialize on
// its row-0 bucket, which takes half of all indices. The default geometry
// (7 columns) has a pass of its own, xorRounds7.
//
// An out-of-range index panics before any bucket is written.
func xorBatch(n uint64, rows int, hashSeeds, alphas []uint64, gammas []uint32, batch []uint64) {
	for _, idx := range batch {
		if idx >= n {
			panic(fmt.Sprintf("cubesketch: index %d out of range for n=%d", idx, n))
		}
	}
	stride := len(alphas) / len(hashSeeds)
	if stride == 7*rows {
		xorRounds7(rows, hashSeeds, alphas, gammas, batch)
		return
	}
	var buf [16]uint8
	d := rowBuf(buf[:], stride/rows)
	for r, hs := range hashSeeds {
		a := alphas[r*stride : (r+1)*stride]
		gm := gammas[r*stride : (r+1)*stride]
		for _, idx := range batch {
			g := hashing.Mix64(hs, idx)
			rowsOf(g, rows, d)
			for c, row := range d {
				i := c*rows + int(row)
				a[i] ^= idx + 1
				gm[i] ^= checksum(g)
			}
		}
	}
}

// xorRounds7 is xorBatch's pass at the default 7 columns, rowsOf
// written out: the words and seven rows stay in registers and the seven
// bucket writes issue back to back, where the generic pass calls rowsOf,
// stores the rows and loops over them. BenchmarkSlabApply (-cpu 1, 2-vCPU
// Xeon, ns/index, medians of 6 runs interleaved with a build whose
// xorBatch skips this pass) read 1026 / 515 / 329 / 283 / 324 / 335 at
// batches 4 / 10 / 40 / 128 / 1,000 / 5,500 against the generic pass's
// 1256 / 812 / 627 / 600 / 591 / 581. Above 33 rows (V > 2^16), where
// each column takes a word of its own, the generic pass was also slower
// than the parent's hash per column. TestUpdateBatchKernelEquivalence and
// TestSlabApplyKernelEquivalence pin this pass to Sketch.Update, which
// uses rowsOf, on both sides of 33 rows.
func xorRounds7(rows int, hashSeeds, alphas []uint64, gammas []uint32, batch []uint64) {
	sentinel := uint64(1) << (rows - 1)
	stride, wide := 7*rows, rows > 33
	for r, hs := range hashSeeds {
		a := alphas[r*stride : (r+1)*stride]
		gm := gammas[r*stride : (r+1)*stride]
		for _, idx := range batch {
			g := hashing.Mix64(hs, idx)
			w1, w2, w3 := word(g, 1), word(g, 2), word(g, 3)
			// The sentinel, at or below bit 32, masks a low half.
			f1, f2, f3, f4, f5, f6 := w1, w1>>32, w2, w2>>32, w3, w3>>32
			if wide {
				f2, f3, f4, f5, f6 = w2, w3, word(g, 4), word(g, 5), word(g, 6)
			}
			v, sum := idx+1, checksum(g)
			i0 := bits.TrailingZeros64(g | sentinel)
			i1 := rows + bits.TrailingZeros64(f1|sentinel)
			i2 := 2*rows + bits.TrailingZeros64(f2|sentinel)
			i3 := 3*rows + bits.TrailingZeros64(f3|sentinel)
			i4 := 4*rows + bits.TrailingZeros64(f4|sentinel)
			i5 := 5*rows + bits.TrailingZeros64(f5|sentinel)
			i6 := 6*rows + bits.TrailingZeros64(f6|sentinel)
			a[i0] ^= v
			gm[i0] ^= sum
			a[i1] ^= v
			gm[i1] ^= sum
			a[i2] ^= v
			gm[i2] ^= sum
			a[i3] ^= v
			gm[i3] ^= sum
			a[i4] ^= v
			gm[i4] ^= sum
			a[i5] ^= v
			gm[i5] ^= sum
			a[i6] ^= v
			gm[i6] ^= sum
		}
	}
}

// applyNodeBinary is xorBatch over a serialized node stack instead of
// bucket arrays: it toggles every index of batch in each of
// len(hashSeeds) rounds of stride buckets (cols columns of rows), round r
// hashing with hashSeeds[r], its sketch being the size bytes at r × size —
// a header, then its alphas' little-endian image, then its gammas'. A
// node's few buffered updates touch about rounds × columns buckets, which
// it reads and writes in place, where decoding the stack into a slab and
// encoding it back copies the whole stack twice: on the disk-social
// benchmark workload (2-vCPU Xeon) the round trip made a cold query 0.6 ms
// slower, 7.54 against 6.97 ms. binary.LittleEndian keeps it right in either
// byte order. Decoding one round at a time into stack scratch, running
// xorBatch over it (xorRounds7 at the default geometry) and encoding it
// back pays only for longer batches: BenchmarkApplyNodeBinary (-cpu 1,
// 2-vCPU Xeon, ns/index, medians of 5 interleaved runs) read 1552 / 801 /
// 455 / 379 / 341 / 322 against this pass's 1799 / 1146 / 805 / 881 / 604
// / 564 at batches 4 / 10 / 40 / 128 / 1,000 / 5,500, but about 5000
// against 4300 at batch 1, and BenchmarkDiskColdQuery's cold-ms, the
// out-of-core cold pass that applies leftover batches through here, read
// 8.69 against 8.44 ms (medians of 3 interleaved runs), so the pass
// stays in place. An out-of-range index panics before any bucket is
// written.
func applyNodeBinary(n uint64, rows, stride, size int, hashSeeds []uint64, buf []byte, batch []uint64) {
	for _, idx := range batch {
		if idx >= n {
			panic(fmt.Sprintf("cubesketch: index %d out of range for n=%d", idx, n))
		}
	}
	var rb [16]uint8
	d := rowBuf(rb[:], stride/rows)
	for r, hs := range hashSeeds {
		sketch := buf[r*size : (r+1)*size]
		alphas := sketch[headerSize : headerSize+stride*8]
		gammas := sketch[headerSize+stride*8 : headerSize+stride*12]
		for _, idx := range batch {
			g := hashing.Mix64(hs, idx)
			rowsOf(g, rows, d)
			for c, row := range d {
				i := c*rows + int(row)
				a, gm := alphas[i*8:i*8+8], gammas[i*4:i*4+4]
				binary.LittleEndian.PutUint64(a, binary.LittleEndian.Uint64(a)^(idx+1))
				binary.LittleEndian.PutUint32(gm, binary.LittleEndian.Uint32(gm)^checksum(g))
			}
		}
	}
}
