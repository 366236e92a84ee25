package tensor

import (
	"math"
	"math/rand/v2"
	"testing"

	"cptgpt/internal/stats"
)

// intoRef is the plain triple loop matmulInto must equal bit for bit:
// dst(i, j) = Σ_k a(i, k)·b(k, j) for a m×kn and b kn×n, each element
// summed in ascending k from +0, a zero a(i, k) skipped.
func intoRef(a, b []float64, m, kn, n int) []float64 {
	dst := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for k := 0; k < kn; k++ {
			if av := a[i*kn+k]; av != 0 {
				for j := 0; j < n; j++ {
					dst[i*n+j] += av * b[k*n+j]
				}
			}
		}
	}
	return dst
}

// accTRef is the plain triple loop matmulAccT must equal bit for bit:
// dst(i, j) += Σ_k a(k, i)·b(k, j) for a m×c and b m×n, summed in
// ascending k, a zero a(k, i) skipped.
func accTRef(dst, a, b []float64, m, c, n int) {
	for i := 0; i < c; i++ {
		for k := 0; k < m; k++ {
			if av := a[k*c+i]; av != 0 {
				for j := 0; j < n; j++ {
					dst[i*n+j] += av * b[k*n+j]
				}
			}
		}
	}
}

// accBTRef is the dot form matmulAccBT is held to: dst(i, j) +=
// Σ_k a(i, k)·b(j, k) for a m×c and b r×c, one local accumulator per
// element. It also returns each element's error scale, |dst| + Σ|a·b|.
func accBTRef(dst, a, b []float64, m, c, r int) (scale []float64) {
	scale = make([]float64, len(dst))
	for i := 0; i < m; i++ {
		for j := 0; j < r; j++ {
			var s, mag float64
			for k := 0; k < c; k++ {
				s += a[i*c+k] * b[j*c+k]
				mag += math.Abs(a[i*c+k] * b[j*c+k])
			}
			scale[i*r+j] = math.Abs(dst[i*r+j]) + mag
			dst[i*r+j] += s
		}
	}
	return scale
}

// sameBits reports whether x and y are the same float64, NaN matching NaN
// whatever its payload and -0 not matching +0.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || math.IsNaN(x) && math.IsNaN(y)
}

// checkMatMul runs the three products over a (m×k), b (k×n), an upstream
// gradient gOut (m×n) and accumulating destinations gaInit (m×k) and
// gbInit (k×n) against the references: the forward product and the weight
// gradient bit for bit, the input gradient — when every input is finite —
// within 1e-12 of its error scale.
func checkMatMul(t *testing.T, a, b, gOut, gaInit, gbInit []float64, m, k, n int, finite bool) {
	t.Helper()
	y := make([]float64, m*n)
	for i := range y {
		y[i] = math.NaN() // matmulInto must overwrite, not accumulate
	}
	matmulInto(y, a, b, m, k, n)
	for i, want := range intoRef(a, b, m, k, n) {
		if !sameBits(y[i], want) {
			t.Fatalf("%d×%d·%d×%d out[%d] = %v, reference %v", m, k, k, n, i, y[i], want)
		}
	}
	gb, wantGB := append([]float64(nil), gbInit...), append([]float64(nil), gbInit...)
	matmulAccT(gb, a, gOut, m, k, n)
	accTRef(wantGB, a, gOut, m, k, n)
	for i := range gb {
		if !sameBits(gb[i], wantGB[i]) {
			t.Fatalf("%d×%d·%d×%d dB[%d] = %v, reference %v", m, k, k, n, i, gb[i], wantGB[i])
		}
	}
	if !finite {
		return
	}
	ga, wantGA := append([]float64(nil), gaInit...), append([]float64(nil), gaInit...)
	matmulAccBT(ga, gOut, b, m, n, k)
	scale := accBTRef(wantGA, gOut, b, m, n, k)
	for i := range ga {
		if math.Abs(ga[i]-wantGA[i]) > 1e-12*scale[i] {
			t.Fatalf("%d×%d·%d×%d dA[%d] = %v, dot form %v", m, k, k, n, i, ga[i], wantGA[i])
		}
	}
}

// TestMatMulBlockedMatchesNaive holds the k-tiled, row-paired kernels to
// the plain loops above: matmulInto and matmulAccT bit for bit, since both
// sum every element in ascending k and skip zero multipliers whether or not
// their shape rule packs an operand first; matmulAccBT within 1e-12, since
// its packed path folds terms directly into the destination instead of a
// local dot accumulator. The shapes sit on both sides of every packing rule
// (mmPackMinK, the 4-column floor, mmPackMinWork, mmPackMinPanel), straddle
// the mmBlockJ and mmBlockK tiles, and have odd row counts for the pair
// tail; each runs with dense a and with one-hot rows of a (token inputs).
func TestMatMulBlockedMatchesNaive(t *testing.T) {
	shapes := [][3]int{
		{16, 16, 16},
		{33, 47, 65},   // straddles mmBlockJ
		{7, 130, 200},  // straddles mmBlockK
		{129, 64, 129}, // multiple j-tiles, parallel-eligible
		{1, 300, 5},
		{200, 17, 4},
		{65, 15, 32}, // forward: k one under mmPackMinK …
		{65, 16, 32}, // … and at it
		{201, 32, 3}, // forward: under the 4-column floor
		{31, 16, 33}, // forward: work one row under mmPackMinWork (16368) …
		{32, 16, 32}, // … and exactly at it
		{15, 65, 67}, // weight gradient: rows one under mmPackMinK
		{16, 33, 31}, // weight gradient: work under mmPackMinWork (16368)
		{17, 31, 33}, // weight gradient: work over mmPackMinWork
		{5, 16, 31},  // input gradient: panel 496, under mmPackMinPanel …
		{5, 16, 32},  // … and 512, at it
		{9, 200, 3},  // input gradient: under the 4-column floor
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		rng := rand.New(rand.NewPCG(11, uint64(m*k*n)))
		a := Randn(m, k, 1, rng).Data
		b := Randn(k, n, 1, rng).Data
		gOut := Randn(m, n, 1, rng).Data
		gaInit := Randn(m, k, 1, rng).Data
		gbInit := Randn(k, n, 1, rng).Data
		checkMatMul(t, a, b, gOut, gaInit, gbInit, m, k, n, true)
		oneHot := make([]float64, m*k)
		for i := 0; i < m; i++ {
			oneHot[i*k+rng.IntN(k)] = 1
		}
		checkMatMul(t, oneHot, b, gOut, gaInit, gbInit, m, k, n, true)
	}
}

// FuzzMatMulF64 generalises TestMatMulBlockedMatchesNaive to drawn shapes
// (rows 1–40, k and n 1–300: every tile tail and both sides of every
// packing rule) and drawn values: rows of a and b that are dense, sparse,
// one-hot or zero, entries that are normals or ±0, and — in about half the
// inputs — ±Inf and NaN. The forward product and the weight gradient must
// equal the zero-skipping loops bit for bit, NaN matching NaN; the input
// gradient must stay within 1e-12 of the dot form on finite inputs. The
// seed corpus runs under plain go test.
func FuzzMatMulF64(f *testing.F) {
	f.Add(uint8(5), uint16(7), uint16(17), uint64(1))
	f.Add(uint8(1), uint16(300), uint16(24), uint64(2))
	f.Add(uint8(40), uint16(3), uint16(300), uint64(3))
	f.Add(uint8(32), uint16(16), uint16(32), uint64(4))
	f.Add(uint8(31), uint16(15), uint16(65), uint64(5))
	f.Add(uint8(17), uint16(130), uint16(4), uint64(6))
	f.Fuzz(func(t *testing.T, rows8 uint8, k16, n16 uint16, seed uint64) {
		m, k, n := 1+int(rows8)%40, 1+int(k16)%300, 1+int(n16)%300
		rng := stats.NewRand(seed)
		finite := rng.IntN(2) == 0
		value := func() float64 {
			if !finite && rng.IntN(256) == 0 {
				return []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.IntN(3)]
			}
			if rng.IntN(8) == 0 {
				return math.Copysign(0, rng.NormFloat64())
			}
			return rng.NormFloat64()
		}
		// fill draws a rows×cols matrix row by row, each row dense, sparse
		// (one entry in eight kept), one-hot or zero.
		fill := func(rows, cols int) []float64 {
			s := make([]float64, rows*cols)
			for r := 0; r < rows; r++ {
				row := s[r*cols : (r+1)*cols]
				switch rng.IntN(4) {
				case 0:
					for j := range row {
						if rng.IntN(8) == 0 {
							row[j] = value()
						}
					}
				case 1:
					row[rng.IntN(cols)] = 1
				case 2:
				default:
					for j := range row {
						row[j] = value()
					}
				}
			}
			return s
		}
		a, b, gOut := fill(m, k), fill(k, n), fill(m, n)
		checkMatMul(t, a, b, gOut, fill(m, k), fill(k, n), m, k, n, finite)
	})
}
