package cubesketch

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

// kernelSizes runs from the empty and one-element batches to a full leaf
// gutter of the scale-11 engine.
var kernelSizes = []int{0, 1, 2, 7, 127, 128, 129, 700, 5500}

// kernelLengths are the vector lengths the kernel is pinned on. n=2 gives
// the minimum cascade of 3 rows, so most hashes have more trailing zeros
// than there are rows and the clamp decides the bucket; 2^32 gives 34
// rows and 1e12 42, where every column takes a word of its own, and 2^31
// the 33 rows that are the last to share them.
var kernelLengths = []uint64{2, 97, 1 << 21, 1 << 31, 1 << 32, 1_000_000_000_000}

// kernelBatch builds a batch of size sz over [0, n) in which roughly a
// third of the entries are duplicates of earlier ones, so the XOR
// cancellation of repeated indices within one batch is exercised.
func kernelBatch(rng *rand.Rand, n uint64, sz int) []uint64 {
	batch := make([]uint64, 0, sz)
	for len(batch) < sz {
		if len(batch) > 0 && rng.IntN(3) == 0 {
			batch = append(batch, batch[rng.IntN(len(batch))])
		} else {
			batch = append(batch, rng.Uint64N(n))
		}
	}
	return batch
}

func slabBytes(sl *Slab) []byte {
	buf := make([]byte, sl.NodeSize()*sl.Nodes())
	sl.MarshalNodes(0, sl.Nodes(), buf)
	return buf
}

// TestUpdateBatchKernelEquivalence pins Sketch.UpdateBatch to the
// per-update path: for every vector length, column count and batch size
// the buckets and the updates counter must be identical, duplicates
// included. Even column counts leave the last word half used, 7 columns
// take xorRounds7, and 17 outgrow the stack row buffer.
func TestUpdateBatchKernelEquivalence(t *testing.T) {
	for _, n := range kernelLengths {
		for _, cols := range []int{1, 2, 3, 4, 5, 7, 8, 17} {
			rng := rand.New(rand.NewPCG(42, n+uint64(cols)))
			for _, sz := range kernelSizes {
				batch := kernelBatch(rng, n, sz)

				ref := New(n, cols, 0xfeed)
				for _, idx := range batch {
					ref.Update(idx)
				}
				got := New(n, cols, 0xfeed)
				got.UpdateBatch(batch)

				refB, _ := ref.MarshalBinary()
				gotB, _ := got.MarshalBinary()
				if !bytes.Equal(refB, gotB) {
					t.Fatalf("n=%d cols=%d size=%d: UpdateBatch buckets differ from per-update path", n, cols, sz)
				}
				if ref.Updates() != got.Updates() {
					t.Fatalf("n=%d cols=%d size=%d: updates counter %d != %d", n, cols, sz, got.Updates(), ref.Updates())
				}
			}
		}
	}
}

// TestSlabApplyKernelEquivalence pins Slab.Apply to the per-update view
// path over one and several rounds, at the default 7 columns (xorRounds7)
// and around it, and checks the neighboring nodes stay untouched.
func TestSlabApplyKernelEquivalence(t *testing.T) {
	const nodes = 3
	for _, n := range kernelLengths {
		for _, cols := range []int{1, 2, 3, 5, 7} {
			for _, rounds := range []int{1, 3} {
				seeds := slabSeeds(rounds, 11)
				rng := rand.New(rand.NewPCG(7, n+uint64(cols*rounds)))
				for _, sz := range kernelSizes {
					batch := kernelBatch(rng, n, sz)
					node := rng.IntN(nodes)

					ref := NewSlab(nodes, n, cols, seeds)
					var v Sketch
					for r := range seeds {
						ref.View(node, r, &v)
						for _, idx := range batch {
							v.Update(idx)
						}
					}
					got := NewSlab(nodes, n, cols, seeds)
					got.Apply(node, batch)

					if !bytes.Equal(slabBytes(ref), slabBytes(got)) {
						t.Fatalf("n=%d cols=%d rounds=%d size=%d node=%d: Slab.Apply buckets differ from per-update path",
							n, cols, rounds, sz, node)
					}
				}
			}
		}
	}
}

// TestKernelDuplicatesCancel applies a batch holding every index an even
// number of times: the sketch must come back to zero.
func TestKernelDuplicatesCancel(t *testing.T) {
	const n = 1 << 21
	for _, half := range []int{5, 128} {
		rng := rand.New(rand.NewPCG(3, uint64(half)))
		batch := kernelBatch(rng, n, half)
		batch = append(batch, batch...)
		rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })

		sl := NewSlab(2, n, 0, slabSeeds(3, 5))
		sl.Apply(1, batch)
		if !bytes.Equal(slabBytes(sl), slabBytes(NewSlab(2, n, 0, slabSeeds(3, 5)))) {
			t.Fatalf("size=%d: a batch of cancelling pairs left buckets set", len(batch))
		}
		s := New(n, 0, 9)
		s.UpdateBatch(batch)
		if !s.IsZero() {
			t.Fatalf("size=%d: UpdateBatch of cancelling pairs left buckets set", len(batch))
		}
	}
}

// TestKernelOutOfRangePanicsBeforeWriting checks that an index ≥ n panics
// wherever it sits in the batch, short or long, and that the buckets
// (and the updates counter) are exactly as they were: the whole batch is
// validated before the first write.
func TestKernelOutOfRangePanicsBeforeWriting(t *testing.T) {
	const n = 1000
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "out of range") {
				t.Fatalf("%s: recovered %q, want an out-of-range panic", name, msg)
			}
		}()
		fn()
	}
	for _, sz := range []int{1, 10, 178} {
		for _, pos := range []int{0, sz / 2, sz - 1} {
			rng := rand.New(rand.NewPCG(uint64(sz), uint64(pos)))
			warm := kernelBatch(rng, n, 20)
			bad := kernelBatch(rng, n, sz)
			bad[pos] = n
			name := fmt.Sprintf("size=%d bad@%d", sz, pos)

			sl := NewSlab(2, n, 0, slabSeeds(2, 1))
			sl.Apply(0, warm)
			before := slabBytes(sl)
			mustPanic(name, func() { sl.Apply(0, bad) })
			if !bytes.Equal(before, slabBytes(sl)) {
				t.Fatalf("%s: Slab.Apply wrote buckets before panicking", name)
			}
			stack := before[:sl.NodeSize()]
			mustPanic(name, func() { sl.ApplyNodeBinary(stack, bad) })
			if !bytes.Equal(stack, slabBytes(sl)[:sl.NodeSize()]) {
				t.Fatalf("%s: ApplyNodeBinary wrote the stack before panicking", name)
			}

			s := New(n, 0, 1)
			s.UpdateBatch(warm)
			beforeS, _ := s.MarshalBinary()
			mustPanic(name, func() { s.UpdateBatch(bad) })
			afterS, _ := s.MarshalBinary()
			if !bytes.Equal(beforeS, afterS) || s.Updates() != uint64(len(warm)) {
				t.Fatalf("%s: UpdateBatch changed the sketch before panicking", name)
			}
		}
	}
}

// TestSlabApplyConcurrentDistinctNodes verifies the kernel's scratch is
// truly per-call: concurrent Apply calls on distinct nodes
// of one slab must neither race nor corrupt each other's arena ranges.
// Meaningful under -race.
func TestSlabApplyConcurrentDistinctNodes(t *testing.T) {
	const (
		n     = 1 << 16
		nodes = 8
		iters = 50
	)
	seeds := []uint64{5, 6}
	small := make([][]uint64, nodes)
	large := make([][]uint64, nodes)
	for i := range small {
		rng := rand.New(rand.NewPCG(uint64(i), 99))
		small[i] = kernelBatch(rng, n, 10)
		large[i] = kernelBatch(rng, n, 300)
	}

	ref := NewSlab(nodes, n, 0, seeds)
	for node := range small {
		for i := 0; i < iters; i++ {
			ref.Apply(node, small[node])
			ref.Apply(node, large[node])
		}
	}

	got := NewSlab(nodes, n, 0, seeds)
	done := make(chan struct{})
	for node := 0; node < nodes; node++ {
		go func(node int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < iters; i++ {
				got.Apply(node, small[node])
				got.Apply(node, large[node])
			}
		}(node)
	}
	for i := 0; i < nodes; i++ {
		<-done
	}

	if !bytes.Equal(slabBytes(ref), slabBytes(got)) {
		t.Fatal("concurrent Apply on distinct nodes corrupted the slab")
	}
}

// TestApplyNodeBinaryMatchesSlabApply pins the serialized-stack kernel to
// Slab.Apply: applying a batch to a node's MarshalNode bytes must give the
// bytes MarshalNode writes after Apply, for every vector length (odd
// bucket counts leave every other round's body 4-byte aligned; 2^31 gives
// the last 33 rows, 2^32 the first 34), column count (17 outgrows the
// stack row buffer), depth and batch size, on a stack that already holds
// updates. A stack whose header does not match the geometry is refused
// untouched.
func TestApplyNodeBinaryMatchesSlabApply(t *testing.T) {
	for _, n := range kernelLengths {
		for _, cols := range []int{1, 3, 7, 17} {
			for _, rounds := range []int{1, 3} {
				seeds := slabSeeds(rounds, 13)
				rng := rand.New(rand.NewPCG(17, n+uint64(cols*rounds)))
				geometry := NewSlab(0, n, cols, seeds)
				for _, sz := range kernelSizes {
					ref := NewSlab(1, n, cols, seeds)
					ref.Apply(0, kernelBatch(rng, n, 9))
					buf := slabBytes(ref)
					batch := kernelBatch(rng, n, sz)
					ref.Apply(0, batch)
					if err := geometry.ApplyNodeBinary(buf, batch); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf, slabBytes(ref)) {
						t.Fatalf("n=%d cols=%d rounds=%d size=%d: ApplyNodeBinary bytes differ from Slab.Apply", n, cols, rounds, sz)
					}
				}
			}
		}
	}
	sl := NewSlab(1, 97, 3, slabSeeds(2, 1))
	buf := slabBytes(sl)
	other := NewSlab(0, 97, 3, slabSeeds(2, 2))
	if err := other.ApplyNodeBinary(buf, []uint64{5}); err == nil {
		t.Fatal("ApplyNodeBinary accepted a stack of other round seeds")
	}
	if !bytes.Equal(buf, slabBytes(sl)) {
		t.Fatal("a refused ApplyNodeBinary wrote the stack")
	}
}
