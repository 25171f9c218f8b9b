package dsu

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	d := New(5)
	if d.Count() != 5 {
		t.Fatalf("fresh Count = %d, want 5", d.Count())
	}
	if _, merged := d.Union(0, 1); !merged {
		t.Fatal("first union reported no merge")
	}
	if _, merged := d.Union(1, 0); merged {
		t.Fatal("repeat union reported a merge")
	}
	if !d.Same(0, 1) || d.Same(0, 2) {
		t.Fatal("Same is wrong after one union")
	}
	if d.Count() != 4 {
		t.Fatalf("Count = %d, want 4", d.Count())
	}
}

func TestComponents(t *testing.T) {
	d := New(6)
	d.Union(0, 1)
	d.Union(2, 3)
	d.Union(3, 4)
	rep, roots := d.Components()
	if len(roots) != 3 || d.Count() != 3 {
		t.Fatalf("roots = %v, Count = %d; want 3 components", roots, d.Count())
	}
	if rep[0] != rep[1] || rep[2] != rep[3] || rep[3] != rep[4] {
		t.Fatal("members of the same set got different representatives")
	}
	if rep[0] == rep[2] || rep[0] == rep[5] || rep[2] == rep[5] {
		t.Fatal("different sets share a representative")
	}
}

func TestReset(t *testing.T) {
	d := New(4)
	d.Union(0, 1)
	d.Union(2, 3)
	d.Reset()
	if d.Count() != 4 || d.Same(0, 1) {
		t.Fatal("Reset did not restore singletons")
	}
}

// TestMatchesNaive compares against a brute-force labels-array reference
// over random union sequences.
func TestMatchesNaive(t *testing.T) {
	f := func(pairs []uint16, nRaw uint8) bool {
		n := int(nRaw)%64 + 2
		d := New(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		relabel := func(from, to int) {
			for i := range label {
				if label[i] == from {
					label[i] = to
				}
			}
		}
		for _, p := range pairs {
			x := uint32(p) % uint32(n)
			y := uint32(p>>8) % uint32(n)
			d.Union(x, y)
			if label[x] != label[y] {
				relabel(label[x], label[y])
			}
		}
		distinct := map[int]bool{}
		for i := 0; i < n; i++ {
			distinct[label[i]] = true
			for j := 0; j < n; j++ {
				if (label[i] == label[j]) != d.Same(uint32(i), uint32(j)) {
					return false
				}
			}
		}
		return d.Count() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFindIsIdempotentAndCanonical(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	d := New(1000)
	for i := 0; i < 3000; i++ {
		d.Union(uint32(rng.Uint64N(1000)), uint32(rng.Uint64N(1000)))
	}
	for i := uint32(0); i < 1000; i++ {
		r := d.Find(i)
		if d.Find(r) != r {
			t.Fatalf("representative %d is not its own root", r)
		}
		if d.Find(i) != r {
			t.Fatal("Find is not stable")
		}
	}
}

// randomPartition returns the labels of a random partition of n elements
// into at most k sets, each labelled by one of its members.
func randomPartition(rng *rand.Rand, n, k int) []uint32 {
	set := make([]int, n)
	first := make(map[int]uint32, k)
	for i := range set {
		set[i] = int(rng.Uint64N(uint64(k)))
		if _, ok := first[set[i]]; !ok {
			first[set[i]] = uint32(i)
		}
	}
	labels := make([]uint32, n)
	for i, s := range set {
		labels[i] = first[s]
	}
	return labels
}

// checkPartition fails unless d encodes exactly the partition labels does,
// each set represented by root(label).
func checkPartition(t *testing.T, d *DSU, labels []uint32, root func(uint32) uint32) {
	t.Helper()
	sets := map[uint32]bool{}
	for i, l := range labels {
		sets[l] = true
		if got := d.Find(uint32(i)); got != root(l) {
			t.Fatalf("Find(%d) = %d, want %d (label %d)", i, got, root(l), l)
		}
	}
	if d.Count() != len(sets) {
		t.Fatalf("Count = %d, the partition has %d sets", d.Count(), len(sets))
	}
}

// TestSeedAgreesWithPartition: seeded from a partition, over a DSU in any
// prior state, Find returns each element's label and Count the number of
// sets — and with a relabelling, the representative it names instead.
func TestSeedAgreesWithPartition(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	d := New(500)
	for trial := 0; trial < 20; trial++ {
		for i := 0; i < 300; i++ { // leave some unrelated state behind
			d.Union(uint32(rng.Uint64N(500)), uint32(rng.Uint64N(500)))
		}
		labels := randomPartition(rng, 500, 1+int(rng.Uint64N(60)))
		d.Seed(labels)
		checkPartition(t, d, labels, func(l uint32) uint32 { return l })
	}
}

// TestSeedThenUnionMatchesNaive: unions over a seeded partition behave as
// unions replayed over singletons that first rebuild the partition.
func TestSeedThenUnionMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	const n = 200
	labels := randomPartition(rng, n, 40)
	seeded, ref := New(n), New(n)
	seeded.Seed(labels)
	for i, l := range labels {
		ref.Union(uint32(i), l)
	}
	for i := 0; i < 100; i++ {
		x, y := uint32(rng.Uint64N(n)), uint32(rng.Uint64N(n))
		_, a := seeded.Union(x, y)
		_, b := ref.Union(x, y)
		if a != b || seeded.Count() != ref.Count() {
			t.Fatalf("union %d: merged %v/%v, Count %d/%d", i, a, b, seeded.Count(), ref.Count())
		}
	}
	for x := uint32(0); x < n; x++ {
		for y := uint32(0); y < n; y += 7 {
			if seeded.Same(x, y) != ref.Same(x, y) {
				t.Fatalf("Same(%d, %d) differs from the replayed reference", x, y)
			}
		}
	}
}

// TestUnionBySizeKeepsLargerRoot: the larger set's representative
// represents the union, whichever argument it is; of two equal sets, the
// first argument's.
func TestUnionBySizeKeepsLargerRoot(t *testing.T) {
	d := New(10)
	d.Union(0, 1)
	d.Union(0, 2) // {0,1,2} on 0
	big := d.Find(0)
	d.Union(3, 4) // {3,4}
	if root, _ := d.Union(3, 1); root != big {
		t.Fatalf("small into large: root %d, want the larger set's %d", root, big)
	}
	if root, _ := d.Union(5, 6); root != 5 {
		t.Fatalf("equal sets: root %d, want the first argument's 5", root)
	}
	// Seeded stars: the larger keeps its label however the call is made.
	d.Seed([]uint32{0, 0, 0, 0, 4, 4, 6, 7, 8, 9})
	if root, _ := d.Union(5, 2); root != 0 {
		t.Fatalf("seeded stars: root %d, want the larger star's 0", root)
	}
	if d.Count() != 5 {
		t.Fatalf("Count = %d after merging two of six seeded sets, want 5", d.Count())
	}
}

// TestSplit: split leaves of seeded stars form a set of their own on the
// first of them, the rest of their sets keep their representative, and
// Count and later unions by size see the new sizes.
func TestSplit(t *testing.T) {
	d := New(8)
	d.Seed([]uint32{0, 0, 0, 0, 0, 5, 5, 7})
	d.Split([]uint32{3, 1, 4})
	want := []uint32{0, 3, 0, 3, 3, 5, 5, 7}
	for i, w := range want {
		if got := d.Find(uint32(i)); got != w {
			t.Fatalf("Find(%d) = %d, want %d", i, got, w)
		}
	}
	if d.Count() != 4 {
		t.Fatalf("Count = %d, want 4", d.Count())
	}
	if d.Size(1) != 3 || d.Size(2) != 2 || d.Size(7) != 1 {
		t.Fatalf("Size = %d, %d, %d for the split, the rest and a singleton, want 3, 2, 1", d.Size(1), d.Size(2), d.Size(7))
	}
	// {1,3,4} (3 members) outweighs {0,2} (2).
	if root, _ := d.Union(0, 4); root != 3 {
		t.Fatalf("union after split: root %d, want the split set's 3", root)
	}
	d.Split([]uint32{6}) // a lone leaf becomes a singleton
	if d.Find(6) != 6 || d.Find(5) != 5 || d.Count() != 4 {
		t.Fatalf("single split: Find(6)=%d Find(5)=%d Count=%d", d.Find(6), d.Find(5), d.Count())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Split of a representative did not panic")
		}
	}()
	d.Split([]uint32{7})
}

// TestRepointKeepsStars: after a Union of two stars, re-pointing the
// absorbed set's members at the merged root leaves one star, whose
// parents are every member's representative, and Split still finds its
// members leaves.
func TestRepointKeepsStars(t *testing.T) {
	d := New(8)
	d.Seed([]uint32{0, 0, 0, 3, 3, 5, 5, 5})
	root, _ := d.Union(3, 5) // {5,6,7} absorbs {3,4}
	if root != 5 {
		t.Fatalf("root %d, want the larger star's 5", root)
	}
	d.Repoint([]uint32{3, 4}, root)
	want := []uint32{0, 0, 0, 5, 5, 5, 5, 5}
	if got := d.Parents(); !slices.Equal(got, want) {
		t.Fatalf("parents %v, want %v", got, want)
	}
	d.Split([]uint32{4, 3})
	if d.Find(3) != 4 || d.Size(5) != 3 || d.Count() != 3 {
		t.Fatalf("after the split: Find(3)=%d Size(5)=%d Count=%d", d.Find(3), d.Size(5), d.Count())
	}
}
