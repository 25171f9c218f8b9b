// Package u128 implements unsigned 128-bit integer arithmetic on top of
// math/bits. The standard l0-sampler baseline needs it: once the sketched
// vector is longer than 2^64 positions (graphs beyond ~10^5 nodes when
// sketching characteristic vectors of length C(V,2) with headroom), bucket
// sums and modular-exponentiation checksums no longer fit in a machine
// word. This is precisely the 128-bit cliff the paper measures in Figure 4.
package u128

import "math/bits"

// Uint128 is an unsigned 128-bit integer.
type Uint128 struct {
	Hi, Lo uint64
}

// From64 widens a 64-bit value.
func From64(x uint64) Uint128 { return Uint128{Lo: x} }

// IsZero reports whether u == 0.
func (u Uint128) IsZero() bool { return u.Hi == 0 && u.Lo == 0 }

// Equal reports whether u == v.
func (u Uint128) Equal(v Uint128) bool { return u == v }

// Cmp compares u and v, returning -1, 0, or +1.
func (u Uint128) Cmp(v Uint128) int {
	switch {
	case u.Hi != v.Hi:
		if u.Hi < v.Hi {
			return -1
		}
		return 1
	case u.Lo != v.Lo:
		if u.Lo < v.Lo {
			return -1
		}
		return 1
	}
	return 0
}

// Add returns u + v (mod 2^128).
func (u Uint128) Add(v Uint128) Uint128 {
	lo, carry := bits.Add64(u.Lo, v.Lo, 0)
	hi, _ := bits.Add64(u.Hi, v.Hi, carry)
	return Uint128{Hi: hi, Lo: lo}
}

// Sub returns u - v (mod 2^128).
func (u Uint128) Sub(v Uint128) Uint128 {
	lo, borrow := bits.Sub64(u.Lo, v.Lo, 0)
	hi, _ := bits.Sub64(u.Hi, v.Hi, borrow)
	return Uint128{Hi: hi, Lo: lo}
}

// Mul returns u * v (mod 2^128).
func (u Uint128) Mul(v Uint128) Uint128 {
	hi, lo := bits.Mul64(u.Lo, v.Lo)
	hi += u.Hi*v.Lo + u.Lo*v.Hi
	return Uint128{Hi: hi, Lo: lo}
}

// Mul64 returns u * x (mod 2^128).
func (u Uint128) Mul64(x uint64) Uint128 {
	hi, lo := bits.Mul64(u.Lo, x)
	hi += u.Hi * x
	return Uint128{Hi: hi, Lo: lo}
}

// Lsh returns u << n for n in [0, 128).
func (u Uint128) Lsh(n uint) Uint128 {
	switch {
	case n == 0:
		return u
	case n >= 128:
		return Uint128{}
	case n >= 64:
		return Uint128{Hi: u.Lo << (n - 64)}
	default:
		return Uint128{Hi: u.Hi<<n | u.Lo>>(64-n), Lo: u.Lo << n}
	}
}

// Rsh returns u >> n for n in [0, 128).
func (u Uint128) Rsh(n uint) Uint128 {
	switch {
	case n == 0:
		return u
	case n >= 128:
		return Uint128{}
	case n >= 64:
		return Uint128{Lo: u.Hi >> (n - 64)}
	default:
		return Uint128{Hi: u.Hi >> n, Lo: u.Lo>>n | u.Hi<<(64-n)}
	}
}

// Div64 returns the quotient and remainder of u divided by d. d must be
// nonzero; a zero divisor panics, matching the native integer behaviour.
func (u Uint128) Div64(d uint64) (q Uint128, r uint64) {
	if u.Hi == 0 {
		q.Lo, r = u.Lo/d, u.Lo%d
		return q, r
	}
	q.Hi, r = u.Hi/d, u.Hi%d
	q.Lo, r = bits.Div64(r, u.Lo, d)
	return q, r
}

// Mersenne89 is the Mersenne prime 2^89 - 1 used as the checksum field for
// the standard l0 baseline's 128-bit path.
var Mersenne89 = Uint128{Hi: 1 << 25, Lo: 0}.Sub(From64(1))

// Mod89 reduces u modulo 2^89 - 1 using shift-and-fold: for any x,
// x ≡ (x >> 89) + (x & (2^89-1)) (mod 2^89-1).
func Mod89(u Uint128) Uint128 {
	for u.Cmp(Mersenne89) >= 0 {
		u = u.Rsh(89).Add(Uint128{Hi: u.Hi & ((1 << 25) - 1), Lo: u.Lo})
		if u.Cmp(Mersenne89) == 0 {
			return Uint128{}
		}
	}
	return u
}

// MulMod89 returns (u * v) mod 2^89-1 for u, v already reduced mod 2^89-1.
// It splits the operands into 45-/44-bit limbs so no intermediate product
// overflows 128 bits.
func MulMod89(u, v Uint128) Uint128 {
	// u = a*2^45 + b, v = c*2^45 + d with a,c < 2^44 and b,d < 2^45.
	a := u.Rsh(45).Lo
	b := u.Lo & ((1 << 45) - 1)
	c := v.Rsh(45).Lo
	d := v.Lo & ((1 << 45) - 1)

	// u*v = ac*2^90 + (ad+bc)*2^45 + bd, and 2^90 ≡ 2 (mod 2^89-1).
	ac := mul64To128(a, c)
	ad := mul64To128(a, d)
	bc := mul64To128(b, c)
	bd := mul64To128(b, d)

	res := Mod89(ac.Lsh(1))
	mid := Mod89(ad.Add(bc))
	// mid * 2^45 can reach ~2^134, so reduce before shifting: split mid
	// into high 44 bits and low 45 bits; high part shifted by 90 ≡ *2.
	midHi := mid.Rsh(44) // < 2^45
	midLo := Uint128{Lo: mid.Lo & ((1 << 44) - 1)}
	// mid*2^45 = midHi*2^89 + midLo*2^45 ≡ midHi + midLo*2^45.
	res = Mod89(res.Add(midHi))
	res = Mod89(res.Add(midLo.Lsh(45)))
	res = Mod89(res.Add(Mod89(bd)))
	return res
}

// PowMod89 returns base^exp mod 2^89-1 by square-and-multiply. This is the
// modular exponentiation that dominates the standard l0-sampler's update
// cost on long vectors.
func PowMod89(base Uint128, exp Uint128) Uint128 {
	result := From64(1)
	b := Mod89(base)
	for !exp.IsZero() {
		if exp.Lo&1 == 1 {
			result = MulMod89(result, b)
		}
		b = MulMod89(b, b)
		exp = exp.Rsh(1)
	}
	return result
}

func mul64To128(x, y uint64) Uint128 {
	hi, lo := bits.Mul64(x, y)
	return Uint128{Hi: hi, Lo: lo}
}
