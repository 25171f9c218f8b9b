package cubesketch

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestSingleInsertIsRecovered(t *testing.T) {
	for _, n := range []uint64{1, 2, 10, 1000, 1 << 20} {
		s := New(n, 0, 42)
		idx := n / 2
		s.Update(idx)
		got, err := s.Query()
		if err != nil {
			t.Fatalf("n=%d: Query: %v", n, err)
		}
		if got != idx {
			t.Fatalf("n=%d: Query = %d, want %d", n, got, idx)
		}
	}
}

func TestDoubleToggleCancels(t *testing.T) {
	s := New(1000, 0, 1)
	s.Update(7)
	s.Update(7)
	if !s.IsZero() {
		t.Fatal("two toggles of the same index should cancel to the zero sketch")
	}
	if _, err := s.Query(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Query on cancelled sketch = %v, want ErrEmpty", err)
	}
}

func TestEmptyQuery(t *testing.T) {
	s := New(100, 0, 5)
	if _, err := s.Query(); !errors.Is(err, ErrEmpty) {
		t.Fatalf("Query on fresh sketch = %v, want ErrEmpty", err)
	}
}

// TestQueryReturnsTrueMember checks, over random support sets of many
// sizes, that a successful query always returns an index that is actually
// in the support (the "no incorrect answer" half of Definition 1).
func TestQueryReturnsTrueMember(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const n = 1 << 16
	failures := 0
	trials := 0
	for _, supportSize := range []int{1, 2, 3, 5, 17, 100, 1000, 10000} {
		for trial := 0; trial < 20; trial++ {
			trials++
			s := New(n, 0, rng.Uint64())
			support := make(map[uint64]bool, supportSize)
			for len(support) < supportSize {
				support[rng.Uint64N(n)] = true
			}
			for idx := range support {
				s.Update(idx)
			}
			got, err := s.Query()
			if errors.Is(err, ErrFailed) {
				failures++
				continue
			}
			if err != nil {
				t.Fatalf("support=%d: unexpected error %v", supportSize, err)
			}
			if !support[got] {
				t.Fatalf("support=%d: Query returned %d, not in support", supportSize, got)
			}
		}
	}
	// δ per sketch is far below 1/4; across 160 trials a handful of
	// failures would already be suspicious.
	if failures > trials/20 {
		t.Fatalf("too many sampling failures: %d of %d", failures, trials)
	}
}

// TestLinearity verifies S(x) + S(y) = S(x+y): merging the sketches of two
// update sequences must produce a bucket-identical sketch to applying the
// concatenated sequence to one sketch.
func TestLinearity(t *testing.T) {
	f := func(xs, ys []uint16, seed uint64) bool {
		const n = 1 << 16
		sx := New(n, 0, seed)
		sy := New(n, 0, seed)
		sxy := New(n, 0, seed)
		for _, x := range xs {
			sx.Update(uint64(x))
			sxy.Update(uint64(x))
		}
		for _, y := range ys {
			sy.Update(uint64(y))
			sxy.Update(uint64(y))
		}
		if err := sx.Merge(sy); err != nil {
			return false
		}
		a, _ := sx.MarshalBinary()
		b, _ := sxy.MarshalBinary()
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeSamplesSymmetricDifference: after merging sketches of x and y,
// a successful query must return an element of the symmetric difference
// (shared indices cancel mod 2).
func TestMergeSamplesSymmetricDifference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const n = 1 << 14
	for trial := 0; trial < 50; trial++ {
		seed := rng.Uint64()
		sx := New(n, 0, seed)
		sy := New(n, 0, seed)
		inX := map[uint64]bool{}
		inY := map[uint64]bool{}
		for i := 0; i < 40; i++ {
			x := rng.Uint64N(n)
			sx.Update(x)
			inX[x] = !inX[x]
		}
		// Half of y's updates overlap x's support to force cancellation.
		xs := make([]uint64, 0, len(inX))
		for x, on := range inX {
			if on {
				xs = append(xs, x)
			}
		}
		for i := 0; i < 20 && i < len(xs); i++ {
			sy.Update(xs[i])
			inY[xs[i]] = !inY[xs[i]]
		}
		for i := 0; i < 20; i++ {
			y := rng.Uint64N(n)
			sy.Update(y)
			inY[y] = !inY[y]
		}
		if err := sx.Merge(sy); err != nil {
			t.Fatal(err)
		}
		symdiff := map[uint64]bool{}
		for x, on := range inX {
			if on != inY[x] {
				symdiff[x] = true
			}
		}
		for y, on := range inY {
			if on != inX[y] {
				symdiff[y] = true
			}
		}
		got, err := sx.Query()
		if len(symdiff) == 0 {
			if !errors.Is(err, ErrEmpty) {
				t.Fatalf("trial %d: empty symdiff but Query = (%d, %v)", trial, got, err)
			}
			continue
		}
		if errors.Is(err, ErrFailed) {
			continue // rare sampling failure is allowed
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !symdiff[got] {
			t.Fatalf("trial %d: Query returned %d, not in symmetric difference", trial, got)
		}
	}
}

func TestBatchEqualsSequential(t *testing.T) {
	f := func(raw []uint32, seed uint64) bool {
		const n = 1 << 20
		batch := make([]uint64, len(raw))
		for i, r := range raw {
			batch[i] = uint64(r) % n
		}
		a := New(n, 0, seed)
		b := New(n, 0, seed)
		a.UpdateBatch(batch)
		for _, idx := range batch {
			b.Update(idx)
		}
		ab, _ := a.MarshalBinary()
		bb, _ := b.MarshalBinary()
		return bytes.Equal(ab, bb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	f := func(raw []uint32, seed uint64, cols uint8) bool {
		const n = 1 << 18
		c := int(cols%10) + 1
		s := New(n, c, seed)
		for _, r := range raw {
			s.Update(uint64(r) % n)
		}
		blob, err := s.MarshalBinary()
		if err != nil {
			return false
		}
		var back Sketch
		if err := back.UnmarshalBinary(blob); err != nil {
			return false
		}
		blob2, _ := back.MarshalBinary()
		return bytes.Equal(blob, blob2) &&
			back.N() == s.N() && back.Columns() == s.Columns() && back.Seed() == s.Seed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	s := New(1000, 0, 9)
	blob, _ := s.MarshalBinary()

	var back Sketch
	if err := back.UnmarshalBinary(blob[:16]); err == nil {
		t.Fatal("truncated header accepted")
	}
	if err := back.UnmarshalBinary(blob[:len(blob)-4]); err == nil {
		t.Fatal("truncated body accepted")
	}
	corrupt := append([]byte(nil), blob...)
	corrupt[16] = 0xFF // absurd column count
	corrupt[17] = 0xFF
	corrupt[18] = 0xFF
	if err := back.UnmarshalBinary(corrupt); err == nil {
		t.Fatal("corrupt header accepted")
	}
}

func TestIncompatibleMerge(t *testing.T) {
	base := New(1000, 7, 1)
	for _, other := range []*Sketch{
		New(1001, 7, 1), // different n
		New(1000, 6, 1), // different cols
		New(1000, 7, 2), // different seed
	} {
		if err := base.Merge(other); err == nil {
			t.Fatal("incompatible merge accepted")
		}
	}
}

func TestCorruptedBucketIsRejected(t *testing.T) {
	// Flip alpha bits without fixing gamma in every bucket: queries must
	// not return the forged index (checksum failure injection).
	rng := rand.New(rand.NewPCG(5, 6))
	rejected := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		s := New(1<<12, 0, rng.Uint64())
		s.Update(rng.Uint64N(1 << 12))
		forged := rng.Uint64N(1<<12) + 1
		for col := 0; col < s.Columns(); col++ {
			for row := 0; row < s.Rows(); row++ {
				s.CorruptBucket(col, row, forged, 0)
			}
		}
		got, err := s.Query()
		if err != nil {
			rejected++
			continue
		}
		// A surviving query must not be the pure forgery of an empty
		// bucket; with 32-bit checksums a collision is ~2^-32 per bucket.
		_ = got
	}
	if rejected < trials/2 {
		t.Fatalf("only %d/%d corrupted sketches rejected; checksum too weak", rejected, trials)
	}
}

func TestResetCloneIsZero(t *testing.T) {
	s := New(500, 0, 3)
	s.Update(5)
	c := s.Clone()
	s.Reset()
	if !s.IsZero() {
		t.Fatal("Reset left a nonzero sketch")
	}
	if c.IsZero() {
		t.Fatal("Clone shares storage with original")
	}
	got, err := c.Query()
	if err != nil || got != 5 {
		t.Fatalf("clone Query = (%d, %v), want (5, nil)", got, err)
	}
}

func TestNumRows(t *testing.T) {
	cases := []struct {
		n    uint64
		want int
	}{
		{1, 3}, {2, 3}, {3, 4}, {1024, 12}, {1025, 13},
	}
	for _, c := range cases {
		if got := NumRows(c.n); got != c.want {
			t.Errorf("NumRows(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Update past n did not panic")
		}
	}()
	New(10, 0, 1).Update(10)
}

func TestBytesMatchesBucketCount(t *testing.T) {
	s := New(1<<20, 7, 1)
	want := s.Columns() * s.Rows() * 12 // 8-byte alpha + 4-byte gamma
	if got := s.Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
}
