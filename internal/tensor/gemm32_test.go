package tensor

import (
	"fmt"
	"math"
	"testing"

	"cptgpt/internal/stats"
)

// gemmF32Ref is a straightforward float64-accumulated reference.
func gemmF32Ref(dst, wT, bias, x []float32, rows, in, out int) {
	for r := 0; r < rows; r++ {
		for j := 0; j < out; j++ {
			acc := float64(bias[j])
			for i := 0; i < in; i++ {
				acc += float64(x[r*in+i]) * float64(wT[j*in+i])
			}
			dst[r*out+j] = float32(acc)
		}
	}
}

func randF32(n int, seed uint64) []float32 {
	rng := stats.NewRand(seed)
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// TestGemmF32Shapes exercises both kernels over awkward shapes (reduction
// tails shorter than every unroll width, 1-row and odd-output panels, row
// counts that span several of the assembly path's row tiles), comparing against the float64 reference within a float32 reduction-error
// tolerance.
func TestGemmF32Shapes(t *testing.T) {
	shapes := []struct{ rows, in, out int }{
		{1, 1, 1}, {1, 7, 3}, {2, 8, 2}, {3, 10, 5}, {4, 128, 128},
		{5, 128, 1024}, {4, 1024, 128}, {2, 33, 7}, {3, 40, 6}, {6, 64, 2},
		{1, 130, 1}, {7, 9, 9}, {19, 1024, 5}, {3, 9000, 2},
	}
	for _, asm := range []bool{false, true} {
		if asm && !gemmAsmAvailable {
			continue
		}
		prev := SetGemmF32Asm(asm)
		for _, s := range shapes {
			wT := randF32(s.out*s.in, 1)
			bias := randF32(s.out, 2)
			x := randF32(s.rows*s.in, 3)
			got := make([]float32, s.rows*s.out)
			want := make([]float32, s.rows*s.out)
			GemmF32(got, wT, bias, x, s.rows, s.in, s.out)
			gemmF32Ref(want, wT, bias, x, s.rows, s.in, s.out)
			for i := range want {
				diff := math.Abs(float64(got[i] - want[i]))
				// Allow float32 reduction error growing with the length.
				tol := 1e-5 * (1 + math.Abs(float64(want[i]))) * math.Sqrt(float64(s.in))
				if diff > tol || math.IsNaN(float64(got[i])) {
					t.Fatalf("asm=%v shape %v: dst[%d] = %v, want %v (|Δ| %.2e > %.2e)",
						asm, s, i, got[i], want[i], diff, tol)
				}
			}
		}
		SetGemmF32Asm(prev)
	}
}

// TestGemmF32RowIndependent pins the contract the decoder's determinism
// rests on, for both kernels: a row's outputs do not depend on the rows
// batched with it, so a k-row GEMM equals k one-row GEMMs exactly — and
// MatVecGroupF32, the strided front, returns the same rows for any grouping
// (a consecutive run over compact rows, gaps, reordering, padded strides).
func TestGemmF32RowIndependent(t *testing.T) {
	const rows, in, out = 7, 2051, 19 // 3-row tiles on the assembly path
	wT := randF32(out*in, 4)
	bias := randF32(out, 5)
	x := randF32(rows*in, 6)
	for _, asm := range []bool{false, true} {
		if asm && !gemmAsmAvailable {
			continue
		}
		prev := SetGemmF32Asm(asm)
		want := make([]float32, rows*out)
		for r := 0; r < rows; r++ {
			GemmF32(want[r*out:(r+1)*out], wT, bias, x[r*in:(r+1)*in], 1, in, out)
		}
		got := make([]float32, rows*out)
		GemmF32(got, wT, bias, x, rows, in, out)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("asm=%v: %d-row gemm[%d] = %v, one-row %v", asm, rows, i, got[i], want[i])
			}
		}

		for _, group := range [][]int{{0, 1, 2, 3, 4, 5, 6}, {5, 0, 1, 2, 6}, {3}, {6, 4, 2}} {
			clear(got)
			MatVecGroupF32(got, out, wT, bias, x, in, in, out, group)
			for _, s := range group {
				for j := 0; j < out; j++ {
					if got[s*out+j] != want[s*out+j] {
						t.Fatalf("asm=%v group %v: row %d out %d = %v, want %v", asm, group, s, j, got[s*out+j], want[s*out+j])
					}
				}
			}
		}
		// Padded strides: rows 2 wider than the data on both sides.
		xs, ds := in+2, out+2
		xp := make([]float32, rows*xs)
		for r := 0; r < rows; r++ {
			copy(xp[r*xs:], x[r*in:(r+1)*in])
		}
		dp := make([]float32, rows*ds)
		MatVecGroupF32(dp, ds, wT, bias, xp, xs, in, out, []int{0, 1, 2, 4})
		for _, s := range []int{0, 1, 2, 4} {
			for j := 0; j < out; j++ {
				if dp[s*ds+j] != want[s*out+j] {
					t.Fatalf("asm=%v padded: row %d out %d = %v, want %v", asm, s, j, dp[s*ds+j], want[s*out+j])
				}
			}
		}

		// Generated shapes: every row count 1–9 (pairs, a lone row, pairs
		// plus an odd last row) against reductions that end in each of the
		// kernel's 32-, 8- and 1-element stages and that make the assembly
		// path's row tiles 7, 5, 3 and 1 rows — a row may land first or
		// second in a pair, or alone, and its bits may not care.
		for _, gin := range []int{1, 7, 8, 9, 31, 32, 33, 39, 40, 41, 63, 64, 65, 71, 100, 1170, 1638, 2730, 8192, 9000} {
			for _, gout := range []int{1, 3, 5} {
				gw := randF32(gout*gin, uint64(gin))
				gb := randF32(gout, uint64(gout))
				gx := randF32(9*gin, uint64(gin+gout))
				one := make([]float32, 9*gout)
				for r := 0; r < 9; r++ {
					GemmF32(one[r*gout:(r+1)*gout], gw, gb, gx[r*gin:(r+1)*gin], 1, gin, gout)
				}
				for grows := 1; grows <= 9; grows++ {
					// Rows [9-grows, 9): every row takes every pair position.
					off := 9 - grows
					many := make([]float32, grows*gout)
					GemmF32(many, gw, gb, gx[off*gin:], grows, gin, gout)
					for i := range many {
						if math.Float32bits(many[i]) != math.Float32bits(one[off*gout+i]) {
							t.Fatalf("asm=%v %d×%d→%d: multi-row dst[%d] = %v, one-row call %v", asm, grows, gin, gout, i, many[i], one[off*gout+i])
						}
					}
				}
			}
		}
		SetGemmF32Asm(prev)
	}
}

// TestGemmF32Deterministic requires repeated calls to produce identical bits
// (each kernel has a fixed reduction order).
func TestGemmF32Deterministic(t *testing.T) {
	const rows, in, out = 4, 129, 33
	wT := randF32(out*in, 7)
	bias := randF32(out, 8)
	x := randF32(rows*in, 9)
	for _, asm := range []bool{false, true} {
		if asm && !gemmAsmAvailable {
			continue
		}
		prev := SetGemmF32Asm(asm)
		a := make([]float32, rows*out)
		b := make([]float32, rows*out)
		GemmF32(a, wT, bias, x, rows, in, out)
		GemmF32(b, wT, bias, x, rows, in, out)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("asm=%v: nondeterministic at %d: %v vs %v", asm, i, a[i], b[i])
			}
		}
		SetGemmF32Asm(prev)
	}
}

// TestGemmF32KillSwitch pins SetGemmF32Asm semantics: it reports the prior
// state, never enables beyond platform capability, and GemmF32Asm tracks it.
func TestGemmF32KillSwitch(t *testing.T) {
	orig := GemmF32Asm()
	defer SetGemmF32Asm(orig)
	if prev := SetGemmF32Asm(false); prev != orig {
		t.Fatalf("SetGemmF32Asm(false) reported prev %v, want %v", prev, orig)
	}
	if GemmF32Asm() {
		t.Fatal("kill switch did not disable the asm kernel")
	}
	SetGemmF32Asm(true)
	if GemmF32Asm() != gemmAsmAvailable {
		t.Fatalf("enabling asm: got %v, want capability %v", GemmF32Asm(), gemmAsmAvailable)
	}
}

// BenchmarkGemmF32 times the kernels against the paper-scale panels at the
// row counts the decoder packs: a full plain batch (32 rows), one verify
// chain (5) and a drained batch (1).
func BenchmarkGemmF32(b *testing.B) {
	for _, c := range []struct {
		name          string
		rows, in, out int
	}{
		{"32x128x1024", 32, 128, 1024},
		{"32x1024x128", 32, 1024, 128},
		{"32x128x128", 32, 128, 128},
		{"5x128x1024", 5, 128, 1024},
		{"5x1024x128", 5, 1024, 128},
		{"5x128x128", 5, 128, 128},
		{"1x128x128", 1, 128, 128},
	} {
		wT := randF32(c.out*c.in, 1)
		bias := randF32(c.out, 2)
		x := randF32(c.rows*c.in, 3)
		dst := make([]float32, c.rows*c.out)
		for _, asm := range []bool{true, false} {
			if asm && !gemmAsmAvailable {
				continue
			}
			name := fmt.Sprintf("%s/asm=%v", c.name, asm)
			b.Run(name, func(b *testing.B) {
				prev := SetGemmF32Asm(asm)
				defer SetGemmF32Asm(prev)
				b.SetBytes(int64(4 * c.in * c.out))
				for i := 0; i < b.N; i++ {
					GemmF32(dst, wT, bias, x, c.rows, c.in, c.out)
				}
				b.ReportMetric(float64(b.N)*float64(c.rows)*float64(c.in)*float64(c.out)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}
