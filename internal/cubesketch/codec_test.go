package cubesketch

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// The reference side of TestCodecFastEqualsPortable: every serialized-form
// entry point rebuilt from the portable body loops (the code a big-endian
// host runs) and plain word loops. On a little-endian host the entry points
// themselves run the byte-copy codec, so each comparison below is fast
// against portable; on a big-endian one both sides are the portable loops
// and the test degenerates to a self-check.

func refMarshal(s *Sketch, buf []byte) int {
	binary.LittleEndian.PutUint64(buf[0:], s.n)
	binary.LittleEndian.PutUint64(buf[8:], s.seed)
	binary.LittleEndian.PutUint64(buf[16:], uint64(s.cols))
	binary.LittleEndian.PutUint64(buf[24:], uint64(s.rows))
	putBodyPortable(buf[headerSize:], s.alphas, s.gammas)
	return s.SerializedSize()
}

func refMarshalNode(sl *Slab, node int, buf []byte) {
	var v Sketch
	for r := 0; r < sl.rounds; r++ {
		sl.View(node, r, &v)
		refMarshal(&v, buf[r*sl.SketchSize():])
	}
}

func refUnmarshalNode(sl *Slab, node int, buf []byte) {
	var v Sketch
	for r := 0; r < sl.rounds; r++ {
		sl.View(node, r, &v)
		getBodyPortable(v.alphas, v.gammas, buf[r*sl.SketchSize()+headerSize:])
	}
}

func refMerge(dst, src *Sketch) {
	for i, a := range src.alphas {
		dst.alphas[i] ^= a
	}
	for i, g := range src.gammas {
		dst.gammas[i] ^= g
	}
}

func refMergeSerialized(dst, src []byte) {
	for i := headerSize; i < len(dst); i++ {
		dst[i] ^= src[i]
	}
}

// misaligned returns a size-byte slice starting one byte past an allocation
// boundary: whatever alignment the codec might have assumed of a buffer, it
// does not get here.
func misaligned(size int) []byte { return make([]byte, size+1)[1:] }

// TestCodecFastEqualsPortable pins the byte-copy codec and the XORBytes
// merges to the portable definition: MarshalInto / MarshalNode(s),
// UnmarshalNode(s), Merge, MergeBinary, MergeNodeBinary, MergeRounds and
// MergeSerialized give the same bytes and buckets as the word loops, over
// column counts and vector lengths that make the bucket count per sketch
// odd as well as even. An odd count leaves every other round's body
// 4-byte-aligned inside a node slot, which is where a word view of the
// buffer would fault; run under -race, checkptr inspects every byte view.
// The header and length checks sit in front of either codec, so a refused
// buffer must leave the buckets untouched whichever one would have run.
func TestCodecFastEqualsPortable(t *testing.T) {
	const rounds, nodes = 3, 3
	for _, cols := range []int{1, 2, 7} {
		for _, n := range []uint64{1 << 20, 1 << 21} { // 22 and 23 rows
			for _, fill := range []string{"random", "ones"} {
				t.Run(fmt.Sprintf("cols=%d/rows=%d/%s", cols, NumRows(n), fill), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(uint64(cols), n))
					sl := NewSlab(nodes, n, cols, slabSeeds(rounds, 0xc0dec))
					if odd := cols*NumRows(n)%2 == 1; odd != (sl.SketchSize()%8 == 4) {
						t.Fatalf("sketch size %d for %d buckets: odd counts are meant to misalign the next round", sl.SketchSize(), cols*NumRows(n))
					}
					for i := range sl.alphas {
						sl.alphas[i], sl.gammas[i] = ^uint64(0), ^uint32(0)
						if fill == "random" {
							sl.alphas[i], sl.gammas[i] = rng.Uint64(), rng.Uint32()
						}
					}
					size := sl.NodeSize()

					// Encode: per sketch, per node, per group.
					fast, ref := misaligned(nodes*size), misaligned(nodes*size)
					if got := sl.MarshalNodes(0, nodes, fast); got != nodes*size {
						t.Fatalf("MarshalNodes wrote %d bytes, want %d", got, nodes*size)
					}
					for node := 0; node < nodes; node++ {
						refMarshalNode(sl, node, ref[node*size:])
					}
					if !bytes.Equal(fast, ref) {
						t.Fatal("MarshalNodes differs from the portable encoding")
					}

					// Decode, into a dirty arena so a skipped bucket shows.
					decFast := NewSlab(nodes, n, cols, slabSeeds(rounds, 0xc0dec))
					decRef := NewSlab(nodes, n, cols, slabSeeds(rounds, 0xc0dec))
					for i := range decFast.alphas {
						decFast.alphas[i], decFast.gammas[i] = 0xdead, 0xbeef
					}
					if err := decFast.UnmarshalNodes(0, nodes, fast); err != nil {
						t.Fatal(err)
					}
					for node := 0; node < nodes; node++ {
						refUnmarshalNode(decRef, node, ref[node*size:])
					}
					if !slices.Equal(decFast.alphas, sl.alphas) || !slices.Equal(decFast.gammas, sl.gammas) ||
						!slices.Equal(decRef.alphas, sl.alphas) || !slices.Equal(decRef.gammas, sl.gammas) {
						t.Fatal("UnmarshalNodes does not invert the encoding under both codecs")
					}

					// Merges: node 1 into node 0, five ways, each against the
					// word loops on its own copy.
					copySlab := func() *Slab {
						c := NewSlab(nodes, n, cols, slabSeeds(rounds, 0xc0dec))
						copy(c.alphas, sl.alphas)
						copy(c.gammas, sl.gammas)
						return c
					}
					want := copySlab()
					var dst, src Sketch
					for r := 0; r < rounds; r++ {
						want.View(0, r, &dst)
						sl.View(1, r, &src)
						refMerge(&dst, &src)
					}
					same := func(what string, got *Slab) {
						t.Helper()
						if !slices.Equal(got.alphas, want.alphas) || !slices.Equal(got.gammas, want.gammas) {
							t.Fatalf("%s differs from the word-loop merge", what)
						}
					}

					got := copySlab()
					for r := 0; r < rounds; r++ {
						got.View(0, r, &dst)
						sl.View(1, r, &src)
						if err := dst.Merge(&src); err != nil {
							t.Fatal(err)
						}
					}
					same("Sketch.Merge", got)

					got = copySlab()
					for r := 0; r < rounds; r++ {
						got.View(0, r, &dst)
						if err := dst.MergeBinary(fast[size+r*sl.SketchSize():]); err != nil {
							t.Fatal(err)
						}
					}
					same("Sketch.MergeBinary", got)

					got = copySlab()
					if err := got.MergeNodeBinary(0, fast[size:2*size]); err != nil {
						t.Fatal(err)
					}
					same("Slab.MergeNodeBinary", got)

					// MergeRounds in two runs of unequal length, the second
					// starting on an odd round.
					got = copySlab()
					if err := got.MergeRounds(0, 0, sl, 1, 0, 1); err != nil {
						t.Fatal(err)
					}
					if err := got.MergeRounds(0, 1, sl, 1, 1, rounds-1); err != nil {
						t.Fatal(err)
					}
					same("Slab.MergeRounds", got)

					serFast, serRef := misaligned(size), misaligned(size)
					copy(serFast, fast[:size])
					copy(serRef, fast[:size])
					for r := 0; r < rounds; r++ {
						lo, hi := r*sl.SketchSize(), (r+1)*sl.SketchSize()
						if err := MergeSerialized(serFast[lo:hi], fast[size+lo:size+hi]); err != nil {
							t.Fatal(err)
						}
						refMergeSerialized(serRef[lo:hi], fast[size+lo:size+hi])
					}
					wantSer := make([]byte, size)
					refMarshalNode(want, 0, wantSer)
					if !bytes.Equal(serFast, serRef) || !bytes.Equal(serFast, wantSer) {
						t.Fatal("MergeSerialized differs from the byte-loop merge or from the encoding of the merged buckets")
					}

					// Refusals: a header of another round's seed, and a buffer
					// one byte short. Nothing may have been written.
					wrongSeed := slices.Clone(fast[:size])
					copy(wrongSeed[8:16], fast[sl.SketchSize()+8:]) // round 0 claims round 1's seed
					got = copySlab()
					got.View(0, 0, &dst)
					for what, err := range map[string]error{
						"MergeBinary/seed":      dst.MergeBinary(wrongSeed),
						"MergeBinary/short":     dst.MergeBinary(fast[:sl.SketchSize()-1]),
						"MergeNodeBinary/seed":  got.MergeNodeBinary(0, wrongSeed),
						"MergeNodeBinary/short": got.MergeNodeBinary(0, fast[:size-1]),
						"UnmarshalNode/seed":    got.UnmarshalNode(0, wrongSeed),
						"UnmarshalNode/short":   got.UnmarshalNode(0, fast[:size-1]),
						"UnmarshalNodes/short":  got.UnmarshalNodes(0, nodes, fast[:nodes*size-1]),
						"MergeSerialized/seed":  MergeSerialized(wrongSeed[:sl.SketchSize()], fast[:sl.SketchSize()]),
						"MergeSerialized/short": MergeSerialized(serFast[:sl.SketchSize()-1], fast[:sl.SketchSize()]),
						"MergeRounds/seed":      got.MergeRounds(0, 0, sl, 1, 1, 1),
						"MergeRounds/range":     got.MergeRounds(0, 1, sl, 1, 1, rounds),
					} {
						if err == nil {
							t.Fatalf("%s: accepted", what)
						}
						if !strings.HasPrefix(err.Error(), "cubesketch: ") {
							t.Fatalf("%s: %v", what, err)
						}
					}
					if !slices.Equal(got.alphas, sl.alphas) || !slices.Equal(got.gammas, sl.gammas) {
						t.Fatal("a refused buffer changed the buckets")
					}
					if !bytes.Equal(serFast, serRef) || !bytes.Equal(wrongSeed[headerSize:sl.SketchSize()], fast[headerSize:sl.SketchSize()]) {
						t.Fatal("a refused MergeSerialized changed its destination")
					}
				})
			}
		}
	}
}

// TestSlabReshape pins the re-formed arena: zeroed whatever it held, its
// views on the new shape's seeds, and no new bucket arrays while the shape
// fits the ones it has.
func TestSlabReshape(t *testing.T) {
	const n, cols = 1 << 12, 3
	seeds := slabSeeds(6, 0x5eed)
	sl := NewSlab(8, n, cols, seeds[:1])
	first := &sl.alphas[0]
	sl.Apply(7, []uint64{1, 2, 3})

	sl.Reshape(2, seeds[2:6]) // 2 × 4 rounds: as many sketches as 8 × 1
	if sl.Nodes() != 2 || sl.Rounds() != 4 || &sl.alphas[0] != first {
		t.Fatalf("reshape to 2×4: %d nodes, %d rounds, reallocated %v", sl.Nodes(), sl.Rounds(), &sl.alphas[0] != first)
	}
	for i := range sl.alphas {
		if sl.alphas[i] != 0 || sl.gammas[i] != 0 {
			t.Fatal("reshape left buckets of the previous shape behind")
		}
	}
	ref := NewSlab(2, n, cols, seeds[2:6])
	sl.Apply(1, []uint64{9, 10})
	ref.Apply(1, []uint64{9, 10})
	if !bytes.Equal(slabBytes(sl), slabBytes(ref)) {
		t.Fatal("a reshaped slab does not equal a new slab of that shape")
	}
	var v Sketch
	sl.View(1, 3, &v)
	if v.Seed() != seeds[5] {
		t.Fatalf("view seed %#x, want round 5's %#x", v.Seed(), seeds[5])
	}

	sl.Reshape(3, seeds[:4]) // larger than anything so far: grows
	if sl.Nodes() != 3 || sl.Rounds() != 4 || len(sl.alphas) != 3*4*sl.stride {
		t.Fatalf("reshape to 3×4: %d nodes, %d rounds, %d buckets", sl.Nodes(), sl.Rounds(), len(sl.alphas))
	}
}
