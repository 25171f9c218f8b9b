package hashing

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestUint64MatchesXXH64(t *testing.T) {
	// The specialized single-word path must agree with the general byte
	// path, or membership/checksum values would differ between callers.
	f := func(seed, x uint64) bool {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		return Uint64(seed, x) == XXH64(seed, b[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestXXH64AllLengthPaths(t *testing.T) {
	// Exercise every tail-handling branch: <4, <8, 8..31, ≥32 bytes, and
	// check determinism plus seed sensitivity on each.
	rng := rand.New(rand.NewPCG(1, 1))
	for _, n := range []int{0, 1, 3, 4, 7, 8, 15, 31, 32, 33, 64, 100} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.Uint64())
		}
		h1 := XXH64(0, b)
		h2 := XXH64(0, b)
		if h1 != h2 {
			t.Fatalf("len %d: not deterministic", n)
		}
		if XXH64(1, b) == h1 && n > 0 {
			t.Fatalf("len %d: seed has no effect", n)
		}
	}
}

func TestXXH64BitUniformity(t *testing.T) {
	// Each output bit should be set ~half the time over random inputs; a
	// badly broken mixer fails this decisively.
	rng := rand.New(rand.NewPCG(2, 3))
	const trials = 4000
	var counts [64]int
	for i := 0; i < trials; i++ {
		h := Uint64(7, rng.Uint64())
		for b := 0; b < 64; b++ {
			if h&(1<<b) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		if c < trials*4/10 || c > trials*6/10 {
			t.Fatalf("bit %d set %d/%d times; mixer is biased", b, c, trials)
		}
	}
}

func TestXXH64AvalancheOnSingleBitFlip(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 5))
	for trial := 0; trial < 200; trial++ {
		x := rng.Uint64()
		flip := x ^ (1 << (rng.Uint64() % 64))
		d := bits.OnesCount64(Uint64(0, x) ^ Uint64(0, flip))
		if d < 10 || d > 54 {
			t.Fatalf("single-bit flip changed only %d output bits", d)
		}
	}
}

func TestMix64BitUniformity(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	const trials = 4000
	var counts [64]int
	for i := 0; i < trials; i++ {
		h := Mix64(7, rng.Uint64())
		for b := 0; b < 64; b++ {
			if h&(1<<b) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		if c < trials*4/10 || c > trials*6/10 {
			t.Fatalf("bit %d set %d/%d times; mixer is biased", b, c, trials)
		}
	}
}

func TestMix64AvalancheOnSingleBitFlip(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 11))
	for trial := 0; trial < 200; trial++ {
		x := rng.Uint64()
		flip := x ^ (1 << (rng.Uint64() % 64))
		d := bits.OnesCount64(Mix64(0, x) ^ Mix64(0, flip))
		if d < 10 || d > 54 {
			t.Fatalf("single-bit flip changed only %d output bits", d)
		}
	}
}

func TestMix64SeedSensitivity(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 13))
	for trial := 0; trial < 200; trial++ {
		x := rng.Uint64()
		s := rng.Uint64()
		d := bits.OnesCount64(Mix64(s, x) ^ Mix64(s+1, x))
		if d < 10 || d > 54 {
			t.Fatalf("seed increment changed only %d output bits", d)
		}
	}
}

func TestTwoWiseMatchesBig(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime61)
	f := func(seed, x uint64) bool {
		tw := NewTwoWise(seed)
		want := new(big.Int).SetUint64(tw.A)
		want.Mul(want, new(big.Int).SetUint64(x%MersennePrime61))
		want.Add(want, new(big.Int).SetUint64(tw.B))
		want.Mod(want, p)
		return tw.Hash(x) == want.Uint64()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTwoWiseNonConstant(t *testing.T) {
	tw := NewTwoWise(12345)
	if tw.A == 0 {
		t.Fatal("coefficient a is zero; function is constant")
	}
	if tw.Hash(1) == tw.Hash(2) && tw.Hash(2) == tw.Hash(3) {
		t.Fatal("hash looks constant")
	}
}

func TestTwoWisePairwiseCollisionRate(t *testing.T) {
	// For a 2-wise family into a 2^61-sized range, the collision rate of
	// bucketed outputs into k buckets should be ~1/k.
	const k = 64
	rng := rand.New(rand.NewPCG(6, 7))
	collisions, trials := 0, 0
	for fn := 0; fn < 50; fn++ {
		tw := NewTwoWise(rng.Uint64())
		for pair := 0; pair < 100; pair++ {
			x, y := rng.Uint64(), rng.Uint64()
			if x%MersennePrime61 == y%MersennePrime61 {
				continue
			}
			trials++
			if tw.Hash(x)%k == tw.Hash(y)%k {
				collisions++
			}
		}
	}
	rate := float64(collisions) / float64(trials)
	if rate > 3.0/k {
		t.Fatalf("bucket collision rate %.4f far above 1/%d", rate, k)
	}
}
