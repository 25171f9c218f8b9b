package cubesketch

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"
)

// kernelSizes straddles everything xorBatch branches on: the empty and
// one-element batches, both sides of the scatter/accumulate crossover, and
// a full leaf gutter of the scale-11 engine.
var kernelSizes = []int{0, 1, 2, 7, scatterMax - 1, scatterMax, scatterMax + 1, 700, 5500}

// kernelLengths are the vector lengths the kernel is pinned on. n=2 gives
// the minimum cascade of 3 rows, so most hashes have more trailing zeros
// than there are rows and the clamp decides the bucket; 1e12 gives 42.
var kernelLengths = []uint64{2, 97, 1 << 21, 1_000_000_000_000}

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
// included. Column counts 1–3 never fill a four-column pass, 5 and 7
// leave a tail behind one.
func TestUpdateBatchKernelEquivalence(t *testing.T) {
	for _, n := range kernelLengths {
		for _, cols := range []int{1, 2, 3, 4, 5, 7} {
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
// path over cols × rounds column runs that are not multiples of the
// kernel's four-column pass (so the tail runs behind both regimes), and
// checks the neighboring nodes stay untouched.
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
// number of times: in both regimes the sketch must come back to zero.
func TestKernelDuplicatesCancel(t *testing.T) {
	const n = 1 << 21
	for _, half := range []int{5, scatterMax} {
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
// in both regimes, wherever it sits in the batch, and that the buckets
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
	for _, sz := range []int{1, 10, scatterMax + 50} {
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
// truly per-call in both regimes: concurrent Apply calls on distinct nodes
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
		large[i] = kernelBatch(rng, n, scatterMax+172)
	}

	ref := NewSlab(nodes, n, 3, seeds)
	for node := range small {
		for i := 0; i < iters; i++ {
			ref.Apply(node, small[node])
			ref.Apply(node, large[node])
		}
	}

	got := NewSlab(nodes, n, 3, seeds)
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
