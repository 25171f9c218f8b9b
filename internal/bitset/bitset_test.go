package bitset

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestBasics(t *testing.T) {
	s := New(130)
	if s.Len() != 130 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Set(0)
	s.Set(64)
	s.Set(129)
	for _, i := range []uint64{0, 64, 129} {
		if !s.Test(i) {
			t.Fatalf("bit %d should be set", i)
		}
	}
	if s.Count() != 3 {
		t.Fatalf("Count = %d, want 3", s.Count())
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("Clear failed")
	}
	if s.Flip(64) != true || s.Flip(64) != false {
		t.Fatal("Flip sequence wrong")
	}
}

func TestForEachAscending(t *testing.T) {
	s := New(300)
	want := []uint64{3, 64, 65, 190, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []uint64
	s.ForEach(func(i uint64) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	s := New(100)
	s.Set(1)
	s.Set(2)
	s.Set(3)
	n := 0
	s.ForEach(func(uint64) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("visited %d bits, want 2", n)
	}
}

func TestAgainstMapModel(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		const n = 1 << 12
		s := New(n)
		model := map[uint64]bool{}
		rng := rand.New(rand.NewPCG(seed, 0))
		for _, op := range ops {
			i := uint64(op) % n
			switch rng.Uint64() % 3 {
			case 0:
				s.Set(i)
				model[i] = true
			case 1:
				s.Clear(i)
				delete(model, i)
			case 2:
				if s.Flip(i) != !model[i] {
					return false
				}
				if model[i] {
					delete(model, i)
				} else {
					model[i] = true
				}
			}
		}
		if s.Count() != uint64(len(model)) {
			return false
		}
		ok := true
		s.ForEach(func(i uint64) bool {
			if !model[i] {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
