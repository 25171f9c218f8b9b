package cubesketch

import (
	"errors"
	"math"
	"math/bits"
	"math/rand/v2"
	"testing"

	"graphzeppelin/internal/hashing"
)

// gateN is the scale-11 engine's vector length, V(V-1)/2 at V = 2,048: a
// cascade of 23 rows, which the default geometry's kernel pass serves.
const gateN = 2048 * 2047 / 2

// columnSamples reports whether column c of s has a bucket that passes
// Query's test: a nonzero α in range whose index's checksum is γ.
func columnSamples(s *Sketch, c int) bool {
	for i := c * s.rows; i < (c+1)*s.rows; i++ {
		alpha := s.alphas[i]
		if alpha != 0 && alpha <= s.n && checksum(hashing.Mix64(s.hashSeed, alpha-1)) == s.gammas[i] {
			return true
		}
	}
	return false
}

// drawDistinct fills dst with k distinct indices of [0, n), using seen (a
// bitset over [0, n), left clear) to reject repeats.
func drawDistinct(rng *rand.Rand, dst []uint64, k int, n uint64, seen []uint64) []uint64 {
	for len(dst) < k {
		x := rng.Uint64N(n)
		if seen[x/64]&(1<<(x%64)) == 0 {
			seen[x/64] |= 1 << (x % 64)
			dst = append(dst, x)
		}
	}
	for _, x := range dst {
		seen[x/64] &^= 1 << (x % 64)
	}
	return dst
}

// chiSquareBound is the χ² value a statistic with df degrees of freedom
// exceeds with probability about 10⁻⁶ (Wilson–Hilferty, z = 4.75).
func chiSquareBound(df int) float64 {
	v := 2 / (9 * float64(df))
	return float64(df) * math.Pow(1-v+4.75*math.Sqrt(v), 3)
}

// TestColumnFailuresIndependent is the gate on the row derivation
// (kernel.go). A round's columns all come from one hash and share its
// checksum, so the test checks what the sketch's failure bound assumes of
// separate hashes: that the columns fail independently and that each
// column's rows are geometric.
//
//   - failures: for random supports of 1, 2, 3, 4, 8, 64 and 1,024
//     distinct indices under a fresh seed per trial, whether each column of
//     a 7-column sketch samples (has a bucket passing the checksum test).
//     With p the pooled per-column failure rate, every single column must
//     fail at about p, and every pair and triple of columns all fail at
//     about p² and p³, within five standard errors of a binomial count
//     (widened for p's own error). A whole-sketch ErrFailed must be
//     exactly all seven columns failing, at most 1 % of trials.
//   - rows: every column's rows over 2^20 consecutive indices, in two
//     rounds, against the geometric law P(row = r) = 2^-(r+1) (χ², tail
//     pooled).
//   - pairs: rows capped at 3, for every two of those 14 columns (the 21
//     pairs within each round and the 49 across the rounds), against the
//     product of the geometric marginals (χ², 15 degrees of freedom).
//
// A derivation that keeps a trailing-zero count — a multiply by an odd
// constant, or the raw low word of a product — ties two columns' rows
// together: each column is still geometric, but the failures and pairs
// parts both fail.
func TestColumnFailuresIndependent(t *testing.T) {
	const cols = DefaultColumns
	rows := NumRows(gateN)

	t.Run("failures", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(51, 7))
		seen := make([]uint64, gateN/64+1)
		var support []uint64
		for _, class := range []struct{ support, trials int }{
			{1, 10000}, {2, 100000}, {3, 100000}, {4, 100000}, {8, 100000}, {64, 40000}, {1024, 8000},
		} {
			// failed[mask] counts the trials whose failing columns are
			// exactly the set mask.
			var failed [1 << cols]int
			for trial := 0; trial < class.trials; trial++ {
				s := New(gateN, cols, rng.Uint64())
				support = drawDistinct(rng, support[:0], class.support, gateN, seen)
				s.UpdateBatch(support)
				mask := 0
				for c := 0; c < cols; c++ {
					if !columnSamples(s, c) {
						mask |= 1 << c
					}
				}
				failed[mask]++
				if _, err := s.Query(); errors.Is(err, ErrFailed) != (mask == 1<<cols-1) {
					t.Fatalf("support %d: Query = %v with failing columns %07b", class.support, err, mask)
				}
			}
			// allFail(set) counts the trials in which every column of set
			// failed.
			allFail := func(set int) int {
				k := 0
				for mask, n := range failed {
					if mask&set == set {
						k += n
					}
				}
				return k
			}
			n := float64(class.trials)
			total := 0
			for c := 0; c < cols; c++ {
				total += allFail(1 << c)
			}
			p := float64(total) / (cols * n)
			// Per subset size c: the mean all-fail rate, and the subset
			// furthest from p^c in standard errors.
			var sum [4]float64
			var sets, worstSet [4]int
			var worst [4]float64
			for set := 1; set < 1<<cols; set++ {
				c := bits.OnesCount(uint(set))
				if c > 3 {
					continue
				}
				k := float64(allFail(set))
				pc := math.Pow(p, float64(c))
				want := n * pc
				sd := 0.0
				if p > 0 {
					pErr := math.Sqrt((1 - p) / (cols * n * p)) // relative
					sd = math.Sqrt(n*pc*(1-pc) + math.Pow(float64(c)*want*pErr, 2))
				}
				if z := math.Abs(k-want) / (5*sd + 0.5); z > worst[c] {
					worst[c], worstSet[c] = z, set
				}
				sum[c] += k / n
				sets[c]++
			}
			for c := 1; c <= 3; c++ {
				if worst[c] > 1 {
					set := worstSet[c]
					t.Errorf("support %d: columns %07b all failed in %d of %.0f trials, want p^%d × trials = %.1f (p = %.4f)",
						class.support, set, allFail(set), n, c, n*math.Pow(p, float64(c)), p)
				}
			}
			if all := failed[1<<cols-1]; all*100 > class.trials {
				t.Errorf("support %d: the whole sketch failed in %d of %d trials, over 1 %%", class.support, all, class.trials)
			}
			t.Logf("support %4d: p = %.4f  pairs %.5f (p² %.5f)  triples %.6f (p³ %.6f)  worst/bound %.2f %.2f %.2f",
				class.support, p, sum[2]/float64(sets[2]), p*p, sum[3]/float64(sets[3]), p*p*p, worst[1], worst[2], worst[3])
		}
	})

	// The two rounds' rows of 2^20 consecutive indices: structured inputs,
	// as edge indices are.
	const m = 1 << 20
	const rounds = 2
	hist := make([][]int, rounds*cols)
	for i := range hist {
		hist[i] = make([]int, rows)
	}
	joint := make([][4][4]int, rounds*cols*rounds*cols)
	rng := rand.New(rand.NewPCG(51, 8))
	seeds := [rounds]uint64{hashSeed(rng.Uint64()), hashSeed(rng.Uint64())}
	start := rng.Uint64N(gateN - m)
	var d [rounds * cols]uint8
	for idx := start; idx < start+m; idx++ {
		for r, hs := range seeds {
			rowsOf(hashing.Mix64(hs, idx), rows, d[r*cols:(r+1)*cols])
		}
		for a, ra := range d {
			hist[a][ra]++
			for b := a + 1; b < len(d); b++ {
				joint[a*len(d)+b][min(ra, 3)][min(d[b], 3)]++
			}
		}
	}
	geometric := func(r int) float64 { return math.Ldexp(1, -(r + 1)) }

	t.Run("rows", func(t *testing.T) {
		// Rows 0..16 singly, 17 and deeper pooled: every bin expects at
		// least 8 indices.
		const tail = 17
		for a, h := range hist {
			chi, deep := 0.0, 0
			for r, k := range h {
				if r >= tail {
					deep += k
					continue
				}
				want := m * geometric(r)
				chi += (float64(k) - want) * (float64(k) - want) / want
			}
			want := m * math.Ldexp(1, -tail)
			chi += (float64(deep) - want) * (float64(deep) - want) / want
			if bound := chiSquareBound(tail); chi > bound {
				t.Errorf("round %d column %d: rows %v are not geometric (χ² %.1f > %.1f)", a/cols, a%cols, h, chi, bound)
			}
		}
	})

	t.Run("pairs", func(t *testing.T) {
		capped := [4]float64{0.5, 0.25, 0.125, 0.125}
		bound := chiSquareBound(15)
		worst := 0.0
		for a := 0; a < len(d); a++ {
			for b := a + 1; b < len(d); b++ {
				chi := 0.0
				for i, ki := range joint[a*len(d)+b] {
					for j, k := range ki {
						want := m * capped[i] * capped[j]
						chi += (float64(k) - want) * (float64(k) - want) / want
					}
				}
				worst = max(worst, chi)
				if chi > bound {
					t.Errorf("round %d column %d against round %d column %d: capped rows are dependent (χ² %.1f > %.1f): %v",
						a/cols, a%cols, b/cols, b%cols, chi, bound, joint[a*len(d)+b])
				}
			}
		}
		t.Logf("largest pairwise χ² %.1f of bound %.1f", worst, bound)
	})
}
