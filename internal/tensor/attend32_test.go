package tensor

import (
	"fmt"
	"math"
	"testing"

	"cptgpt/internal/stats"
)

// asmSettings lists the attention kernels this machine runs, as
// SetGemmF32Asm arguments: attention has one assembly kernel (AVX2), whatever
// tile set the GEMM uses.
func asmSettings() []bool {
	if gemmAsmAvailable {
		return []bool{false, true}
	}
	return []bool{false}
}

// attendCase builds one query and an nPos-row interleaved [K|V] cache for
// heads heads of dh lanes. qScale multiplies the query (a large one
// saturates the softmax); peak, if in [0, nPos), makes that position's keys
// the query itself, so the score maximum sits there rather than anywhere.
func attendCase(heads, dh, nPos int, qScale float32, peak int, seed uint64) (q, kv []float32) {
	dm := heads * dh
	rng := stats.NewRand(seed)
	q = make([]float32, dm)
	for i := range q {
		q[i] = float32(rng.NormFloat64()) * qScale
	}
	kv = make([]float32, nPos*2*dm)
	for i := range kv {
		kv[i] = float32(rng.NormFloat64())
	}
	if peak >= 0 && peak < nPos {
		for i := range q {
			kv[peak*2*dm+i] = q[i] / qScale
		}
	}
	return q, kv
}

// TestAttendF32MatchesPortable holds the AVX2 attention kernel to the
// portable online-softmax attendRowF32: every output within 1e-5 of the
// largest |v| entering its sum, over head dims that are masked only (6),
// one chunk (8), the paper's wide sweep (32) and wide plus masked tails (44,
// 72); single positions, chunk boundaries of the exp pass and the longest
// context of the paper shape; a maximum away from position 0 and at the
// last position; and a saturated softmax.
func TestAttendF32MatchesPortable(t *testing.T) {
	if !gemmAsmAvailable {
		t.Skip("no AVX2+FMA")
	}
	defer SetGemmF32Asm(GemmF32Asm())
	for _, dh := range []int{6, 8, 32, 44, 72} {
		for _, nPos := range []int{1, 7, 8, 9, 255, 256} {
			for _, c := range []struct {
				name   string
				qScale float32
				peak   int
			}{
				{"random", 1, -1},
				{"max mid-context", 1, nPos / 2},
				{"max last", 1, nPos - 1},
				{"saturated", 1000, nPos / 3},
			} {
				const heads = 4
				dm := heads * dh
				q, kv := attendCase(heads, dh, nPos, c.qScale, c.peak, uint64(dh*1000+nPos))
				scratch := make([]float32, max(nPos, 2*heads))
				want := make([]float32, dm)
				SetGemmF32Asm(false)
				AttendF32(want, q, kv, nPos, heads, dm, scratch)
				got := make([]float32, dm)
				SetGemmF32Asm(true)
				AttendF32(got, q, kv, nPos, heads, dm, scratch)
				for j := range got {
					h := j / dh
					var vmax float64
					for p := 0; p < nPos; p++ {
						vmax = math.Max(vmax, math.Abs(float64(kv[p*2*dm+dm+h*dh+j%dh])))
					}
					if d := math.Abs(float64(got[j]) - float64(want[j])); !(d <= 1e-5*vmax) {
						t.Fatalf("dh %d nPos %d %s: att[%d] = %v, portable %v (|Δ| %.2e > 1e-5 × %.3g)",
							dh, nPos, c.name, j, got[j], want[j], d, vmax)
					}
				}
			}
		}
	}
}

// TestAttendF32Saturated checks both kernels against the limit a huge query
// drives attention to: the value row of the one position whose key matches.
func TestAttendF32Saturated(t *testing.T) {
	defer SetGemmF32Asm(GemmF32Asm())
	const heads, dh, nPos = 4, 32, 40
	dm := heads * dh
	q, kv := attendCase(heads, dh, nPos, 1e4, 17, 3)
	scratch := make([]float32, nPos)
	for _, asm := range asmSettings() {
		SetGemmF32Asm(asm)
		att := make([]float32, dm)
		AttendF32(att, q, kv, nPos, heads, dm, scratch)
		for j, got := range att {
			if want := kv[17*2*dm+dm+j]; got != want {
				t.Fatalf("asm=%v: att[%d] = %v, want v_17 = %v", asm, j, got, want)
			}
		}
	}
}

// BenchmarkAttendF32 times one row's attention at the paper shape (4 heads
// of 32) over a short, a typical and a full context.
func BenchmarkAttendF32(b *testing.B) {
	const heads, dh = 4, 32
	for _, nPos := range []int{8, 32, 256} {
		q, kv := attendCase(heads, dh, nPos, 1, -1, 1)
		att := make([]float32, heads*dh)
		scratch := make([]float32, nPos)
		for _, asm := range asmSettings() {
			b.Run(fmt.Sprintf("pos=%d/asm=%v", nPos, asm), func(b *testing.B) {
				defer SetGemmF32Asm(SetGemmF32Asm(asm))
				for i := 0; i < b.N; i++ {
					AttendF32(att, q, kv, nPos, heads, heads*dh, scratch)
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N*nPos), "ns/position")
			})
		}
	}
}
