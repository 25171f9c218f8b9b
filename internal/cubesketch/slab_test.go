package cubesketch

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

func slabSeeds(rounds int, base uint64) []uint64 {
	seeds := make([]uint64, rounds)
	for r := range seeds {
		seeds[r] = base + uint64(r)*0x9e37
	}
	return seeds
}

// TestSlabMatchesStandaloneSketches drives identical update sequences
// through slab views and heap-allocated sketches and requires
// bucket-identical state, query results, and serialized bytes.
func TestSlabMatchesStandaloneSketches(t *testing.T) {
	const n, nodes, rounds = 1 << 12, 5, 4
	seeds := slabSeeds(rounds, 77)
	sl := NewSlab(nodes, n, 0, seeds)

	ref := make([][]*Sketch, nodes)
	for node := range ref {
		ref[node] = make([]*Sketch, rounds)
		for r := range ref[node] {
			ref[node][r] = New(n, 0, seeds[r])
		}
	}

	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200; i++ {
		node := int(rng.Uint64N(nodes))
		batch := make([]uint64, 1+rng.Uint64N(16))
		for j := range batch {
			batch[j] = rng.Uint64N(n)
		}
		sl.Apply(node, batch)
		for r := 0; r < rounds; r++ {
			ref[node][r].UpdateBatch(batch)
		}
	}

	var v Sketch
	for node := 0; node < nodes; node++ {
		for r := 0; r < rounds; r++ {
			sl.View(node, r, &v)
			want, _ := ref[node][r].MarshalBinary()
			got := make([]byte, v.SerializedSize())
			v.MarshalInto(got)
			if !bytes.Equal(got, want) {
				t.Fatalf("node %d round %d: slab view differs from standalone sketch", node, r)
			}
			gi, ge := v.Query()
			wi, we := ref[node][r].Query()
			if gi != wi || (ge == nil) != (we == nil) {
				t.Fatalf("node %d round %d: Query = (%d,%v), want (%d,%v)", node, r, gi, ge, wi, we)
			}
		}
	}
}

func TestSlabMarshalRoundTrip(t *testing.T) {
	const n, nodes, rounds = 1 << 10, 3, 5
	seeds := slabSeeds(rounds, 9)
	sl := NewSlab(nodes, n, 3, seeds)
	rng := rand.New(rand.NewPCG(3, 4))
	for node := 0; node < nodes; node++ {
		batch := make([]uint64, 50)
		for j := range batch {
			batch[j] = rng.Uint64N(n)
		}
		sl.Apply(node, batch)
	}

	blob := make([]byte, sl.NodeSize())
	for node := 0; node < nodes; node++ {
		if got := sl.MarshalNode(node, blob); got != sl.NodeSize() {
			t.Fatalf("MarshalNode wrote %d bytes, want %d", got, sl.NodeSize())
		}
		// The blob must decode with the plain Sketch codec round by round.
		off := 0
		var v, back Sketch
		for r := 0; r < rounds; r++ {
			if err := back.UnmarshalBinary(blob[off : off+sl.SketchSize()]); err != nil {
				t.Fatalf("node %d round %d: %v", node, r, err)
			}
			sl.View(node, r, &v)
			a, _ := back.MarshalBinary()
			b := make([]byte, v.SerializedSize())
			v.MarshalInto(b)
			if !bytes.Equal(a, b) {
				t.Fatalf("node %d round %d: codec mismatch", node, r)
			}
			off += sl.SketchSize()
		}
		// And a second slab must restore identical state from the blob.
		sl2 := NewSlab(nodes, n, 3, seeds)
		if err := sl2.UnmarshalNode(node, blob); err != nil {
			t.Fatal(err)
		}
		blob2 := make([]byte, sl2.NodeSize())
		sl2.MarshalNode(node, blob2)
		if !bytes.Equal(blob, blob2) {
			t.Fatalf("node %d: slab round trip changed bytes", node)
		}
	}
}

func TestSlabUnmarshalRejectsMismatch(t *testing.T) {
	seeds := slabSeeds(3, 5)
	sl := NewSlab(2, 1024, 0, seeds)
	blob := make([]byte, sl.NodeSize())
	sl.MarshalNode(0, blob)

	if err := sl.UnmarshalNode(0, blob[:10]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	other := NewSlab(2, 1024, 0, slabSeeds(3, 6)) // different seeds
	if err := other.UnmarshalNode(0, blob); err == nil {
		t.Fatal("mismatched seed accepted")
	}
}

func TestSlabViewsAreIsolated(t *testing.T) {
	seeds := slabSeeds(2, 11)
	sl := NewSlab(3, 512, 0, seeds)
	sl.Apply(1, []uint64{7})
	var v Sketch
	for node := 0; node < 3; node++ {
		for r := 0; r < 2; r++ {
			sl.View(node, r, &v)
			if node == 1 {
				if v.IsZero() {
					t.Fatalf("round %d of updated node is zero", r)
				}
				if got, err := v.Query(); err != nil || got != 7 {
					t.Fatalf("Query = (%d, %v), want (7, nil)", got, err)
				}
			} else if !v.IsZero() {
				t.Fatalf("node %d round %d dirtied by neighbor update", node, r)
			}
		}
	}
	// A clone must survive the slab being reset underneath it.
	c := sl.CloneSketch(1, 0)
	sl.Apply(1, []uint64{7}) // cancels in the slab
	if got, err := c.Query(); err != nil || got != 7 {
		t.Fatalf("clone Query after slab mutation = (%d, %v), want (7, nil)", got, err)
	}
}

func TestSlabViewMergesWithStandalone(t *testing.T) {
	seeds := slabSeeds(2, 21)
	sl := NewSlab(2, 256, 0, seeds)
	sl.Apply(0, []uint64{3})
	other := New(256, 0, seeds[0])
	other.Update(9)
	var v Sketch
	sl.View(0, 0, &v)
	if err := v.Merge(other); err != nil {
		t.Fatal(err)
	}
	got, err := v.Query()
	if err != nil || (got != 3 && got != 9) {
		t.Fatalf("merged Query = (%d, %v)", got, err)
	}
}

func TestSlabZeroNodes(t *testing.T) {
	sl := NewSlab(0, 128, 0, slabSeeds(3, 1))
	if sl.Bytes() != 0 || sl.Nodes() != 0 {
		t.Fatalf("empty slab has Bytes=%d Nodes=%d", sl.Bytes(), sl.Nodes())
	}
}

// TestSlabMergeNodeBinary checks the zero-alloc serialized node merge
// equals an explicit per-round Merge, and that incompatible blobs are
// rejected.
func TestSlabMergeNodeBinary(t *testing.T) {
	const n, nodes, rounds = 1 << 10, 3, 3
	seeds := slabSeeds(rounds, 7)
	a := NewSlab(nodes, n, 0, seeds)
	b := NewSlab(nodes, n, 0, seeds)
	a.Apply(2, []uint64{1, 2, 3})
	b.Apply(2, []uint64{3, 4})

	blob := make([]byte, b.NodeSize())
	b.MarshalNode(2, blob)

	want := NewSlab(nodes, n, 0, seeds)
	var va, vb, vw Sketch
	for r := 0; r < rounds; r++ {
		a.View(2, r, &va)
		b.View(2, r, &vb)
		want.View(2, r, &vw)
		if err := vw.Merge(&va); err != nil {
			t.Fatal(err)
		}
		if err := vw.Merge(&vb); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.MergeNodeBinary(2, blob); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, a.NodeSize())
	a.MarshalNode(2, got)
	wantBytes := make([]byte, want.NodeSize())
	want.MarshalNode(2, wantBytes)
	if !bytes.Equal(got, wantBytes) {
		t.Fatal("MergeNodeBinary != per-round Merge")
	}

	wrong := NewSlab(nodes, n, 0, slabSeeds(rounds, 1000))
	wrongBlob := make([]byte, wrong.NodeSize())
	wrong.MarshalNode(0, wrongBlob)
	if err := a.MergeNodeBinary(0, wrongBlob); err == nil {
		t.Fatal("mismatched-seed blob accepted")
	}
	if err := a.MergeNodeBinary(0, blob[:10]); err == nil {
		t.Fatal("truncated blob accepted")
	}
}

// TestMergeSerialized checks the in-place serialized XOR merge against
// Merge on deserialized sketches, and its header validation.
func TestMergeSerialized(t *testing.T) {
	x := New(1<<10, 0, 42)
	y := New(1<<10, 0, 42)
	x.UpdateBatch([]uint64{1, 5, 9})
	y.UpdateBatch([]uint64{5, 6})
	bx, _ := x.MarshalBinary()
	by, _ := y.MarshalBinary()
	if err := MergeSerialized(bx, by); err != nil {
		t.Fatal(err)
	}
	if err := x.Merge(y); err != nil {
		t.Fatal(err)
	}
	want, _ := x.MarshalBinary()
	if !bytes.Equal(bx, want) {
		t.Fatal("MergeSerialized != Merge")
	}

	z, _ := New(1<<10, 0, 43).MarshalBinary() // different seed
	if err := MergeSerialized(bx, z); err == nil {
		t.Fatal("mismatched headers accepted")
	}
	if err := MergeSerialized(bx[:16], by); err == nil {
		t.Fatal("truncated dst accepted")
	}
	if err := MergeSerialized(bx, by[:40]); err == nil {
		t.Fatal("truncated src accepted")
	}
}

// TestSlabNarrow: narrowing keeps each stack's first rounds under its own
// index, the stacks it adds start zeroed, and ClearNode zeroes one stack.
func TestSlabNarrow(t *testing.T) {
	const n = 1 << 10
	seeds := slabSeeds(4, 11)
	sl := NewSlab(3, n, 0, seeds)
	ref := NewSlab(3, n, 0, seeds[:2])
	for node := 0; node < 3; node++ {
		batch := []uint64{uint64(node), uint64(node + 7), uint64(3 * node)}
		sl.Apply(node, batch)
		ref.Apply(node, batch)
	}
	sl.Narrow(6, 2)
	if sl.Nodes() != 6 || sl.Rounds() != 2 {
		t.Fatalf("narrowed to %d stacks of %d rounds, want 6 of 2", sl.Nodes(), sl.Rounds())
	}
	got, want := make([]byte, sl.NodeSize()), make([]byte, ref.NodeSize())
	for node := 0; node < 3; node++ {
		sl.MarshalNode(node, got)
		ref.MarshalNode(node, want)
		if !bytes.Equal(got, want) {
			t.Fatalf("stack %d lost its first rounds", node)
		}
	}
	var v Sketch
	for node := 3; node < 6; node++ {
		for r := 0; r < 2; r++ {
			if sl.View(node, r, &v); !v.IsZero() {
				t.Fatalf("added stack %d round %d is not zero", node, r)
			}
		}
	}
	sl.ClearNode(1)
	for r := 0; r < 2; r++ {
		if sl.View(1, r, &v); !v.IsZero() {
			t.Fatalf("cleared stack round %d is not zero", r)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("narrowing past the arrays' capacity did not panic")
		}
	}()
	sl.Narrow(13, 1)
}
