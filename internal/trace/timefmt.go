package trace

import (
	"math"
	"math/big"
	"math/bits"
	"slices"
	"strconv"
)

// appendTime appends f as strconv.AppendFloat(b, f, 'f', -1, 64) writes it:
// the shortest decimal that reads back as f (the closest such one, ties to
// an even last digit), in positional notation. It is the line encoder's
// timestamp formatter. Positive normal values in [2^-47, 2^89), which hold
// JSON's whole 'f' range [1e-6, 1e21), go through an integer-only
// Schubfach kernel (R. Giulietti, "The Schubfach way to render doubles",
// 2020); zero, negatives, subnormals, NaN, ±Inf and larger or smaller
// values go to strconv. TestAppendTimeMatchesStrconv and FuzzAppendTime in
// internal/scenario hold the file sinks' time fields, which this writes,
// to strconv's bytes.
func appendTime(b []byte, f float64) []byte {
	fb := math.Float64bits(f)
	q := int(fb>>52) - 1075 // f = c·2^q; the sign bit puts every negative out of range
	if q < minTimeQ || q > maxTimeQ {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	s, k := shortestDecimal(1<<52|fb&(1<<52-1), q)
	return appendFixed(b, s, k)
}

// The kernel's range: c·2^q with q in [minTimeQ, maxTimeQ] is exactly the
// set of normal values whose decimal exponent k, in both the symmetric and
// the asymmetric case of shortestDecimal, lies in [minTimeK, maxTimeK].
const (
	minTimeK, maxTimeK = -30, 10
	minTimeQ, maxTimeQ = -99, 36
)

// timeG holds, for each k in [minTimeK, maxTimeK], g = ⌊10^-k·2^-r⌋ + 1 where
// r is the one integer that puts 10^-k·2^-r in [2^125, 2^126): a 126-bit
// upper approximation of 10^-k, split into its high and low 63 bits.
var timeG = func() (g [maxTimeK - minTimeK + 1][2]uint64) {
	for i := range g {
		k := minTimeK + i
		num, den := big.NewInt(1), big.NewInt(1)
		if k < 0 {
			num.Exp(big.NewInt(10), big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
		}
		if r := floorLog2Pow10(-k) - 125; r < 0 {
			num.Lsh(num, uint(-r))
		} else {
			den.Lsh(den, uint(r))
		}
		v := num.Add(num.Quo(num, den), big.NewInt(1))
		g[i] = [2]uint64{new(big.Int).Rsh(v, 63).Uint64(), v.Uint64() & (1<<63 - 1)}
	}
	return g
}()

// floorLog2Pow10 returns ⌊e·log2(10)⌋ for |e| ≤ 1233.
func floorLog2Pow10(e int) int { return int(int64(e) * 913124641741 >> 38) }

// shortestDecimal returns the decimal s·10^k that appendTime prints for the
// positive normal value c·2^q, c ∈ [2^52, 2^53), q in the kernel's range.
// s has 16 or 17 digits, trailing zeros included: k is chosen so that the
// rounding interval is 1 to 10 units of 10^k wide, so it holds at most one
// multiple of 10^(k+1) — the one-digit-shorter candidate, taken when it is
// there — and otherwise s or s+1, whichever is in it, or the closer.
func shortestDecimal(c uint64, q int) (s uint64, k int) {
	out := c & 1 // an odd c's interval excludes its bounds
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	k = int(int64(q) * 661971961083 >> 41) // ⌊q·log10(2)⌋
	if c == 1<<52 {
		// The binade's first value: its lower neighbour is half as far.
		cbl = cb - 1
		k = int((int64(q)*661971961083 - 274743187321) >> 41) // ⌊q·log10(2) + log10(3/4)⌋
	}
	g := &timeG[k-minTimeK]
	h := q + floorLog2Pow10(-k) + 2
	vb := roundToOdd(g, cb<<h)
	vbl := roundToOdd(g, cbl<<h)
	vbr := roundToOdd(g, cbr<<h)

	s = vb >> 2
	sp10 := s / 10 * 10
	tp10 := sp10 + 10
	if upin, wpin := vbl+out <= sp10<<2, tp10<<2+out <= vbr; upin != wpin {
		if upin {
			return sp10, k
		}
		return tp10, k
	}
	t := s + 1
	if uin, win := vbl+out <= s<<2, t<<2+out <= vbr; uin != win {
		if uin {
			return s, k
		}
		return t, k
	}
	if r := vb & 3; r < 2 || r == 2 && s&1 == 0 { // vb is 4·f/10^k, rounded to odd
		return s, k
	}
	return t, k
}

// roundToOdd returns ⌊g·cp/2^127⌋ with its last bit set when the product
// has any further bits: the "rop" of Schubfach, from three 64×64 products.
func roundToOdd(g *[2]uint64, cp uint64) uint64 {
	x1, _ := bits.Mul64(g[1], cp)
	y1, y0 := bits.Mul64(g[0], cp)
	z := y0>>1 + x1
	return y1 + z>>63 | (z&(1<<63-1)+(1<<63-1))>>63
}

// DigitPairs holds "00" through "99", so digits go out two at a time: the
// timestamp kernel writes from it, and so do UE id renderers.
const DigitPairs = "00010203040506070809" +
	"10111213141516171819" + "20212223242526272829" + "30313233343536373839" +
	"40414243444546474849" + "50515253545556575859" + "60616263646566676869" +
	"70717273747576777879" + "80818283848586878889" + "90919293949596979899"

// putDigits16 writes hi and lo, each below 10^8, as sixteen digits into
// d[:16]. x and y hold hi/10^6 and lo/10^6 with 57 fraction bits, a little
// over (each times ⌈2^57/10^6⌉ stays below 2^64), and every step moves the
// next two digits of both above the point; the overshoot, under 10^-9,
// never reaches the last pair.
func putDigits16(d []byte, hi, lo uint64) {
	const point, mask, scale = 57, 1<<57 - 1, 1<<57/1_000_000 + 1
	d = d[:16]
	x, y := hi*scale, lo*scale
	for i := 0; i < 8; i += 2 {
		p, q := x>>point*2, y>>point*2
		d[i], d[i+1] = DigitPairs[p], DigitPairs[p+1]
		d[i+8], d[i+9] = DigitPairs[q], DigitPairs[q+1]
		x, y = x&mask*100, y&mask*100
	}
}

// appendFixed appends s·10^k, s of 16 or 17 digits, as strconv's 'f' format
// with shortest precision does: no trailing zero after the point, and no
// point when nothing follows it. The digits are written one byte into the
// free end of b, then moved into place around the point.
func appendFixed(b []byte, s uint64, k int) []byte {
	at := len(b)
	b = slices.Grow(b, fixedMax)[:at+fixedMax]
	d := b[at+1:]
	n := 16
	hi := s / 1e8
	if hi >= 1e8 {
		d[0] = '0' + byte(hi/1e8)
		d, n = d[1:], 17
	}
	putDigits16(d, hi%1e8, s%1e8)
	d = b[at+1 : at+1+n]
	end := n
	for d[end-1] == '0' {
		end--
	}
	switch point := n + k; { // digits before the decimal point
	case point <= 0: // 0.000ddd
		copy(b[at+2-point:], d[:end])
		b[at], b[at+1] = '0', '.'
		copy(b[at+2:at+2-point], zeros)
		return b[:at+2-point+end]
	case point >= end: // ddd000
		copy(b[at:], d[:end])
		copy(b[at+end:at+point], zeros)
		return b[:at+point]
	default: // ddd.ddd
		copy(b[at:], d[:point])
		b[at+point] = '.'
		return b[:at+1+end]
	}
}

// fixedMax bounds appendFixed's output: 17 digits and a point, or up to 14
// zeros and "0." before 17 digits (2^-47 ≈ 7.1e-15), or up to 26 zeros after
// one (2^89 ≈ 6.2e26).
const fixedMax = 48

// zeros pads appendFixed's output on either side of its digits.
const zeros = "000000000000000000000000000000"
