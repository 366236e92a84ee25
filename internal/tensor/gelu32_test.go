package tensor

import (
	"math"
	"testing"

	"cptgpt/internal/stats"
)

// TestGeluF32MatchesScalar holds GeluF32 to the scalar gelu32 bit for bit,
// under the assembly kernel and without it: every length 0–40 (whole vectors,
// scalar tails, both), over normals of every magnitude, ±0, subnormals, the
// neighbourhood of the tanh argument's clamp on both sides, ±Inf and NaNs.
// The decoder's determinism rests on it: an activation's value may not depend
// on where in a worker's packed rows it sits.
func TestGeluF32MatchesScalar(t *testing.T) {
	f32 := math.Float32frombits
	special := []float32{
		0, f32(0x80000000), // ±0
		f32(1), f32(0x80000001), f32(0x007fffff), f32(0x807fffff), // subnormals
		f32(0x00800000), f32(0x80800000), // smallest normals
		float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), f32(0x7fc12345), f32(0xffc00001), f32(0x7f812345), // quiet, payload, negative, signalling
		math.MaxFloat32, -math.MaxFloat32, 1e20, -1e20, // k*x*x*x overflows
		1, -1, 0.5, -0.5, 3, -3, 1e-10, -1e-10,
	}
	// gelu32 hands tanh32 u = c*(x + k*x³), and |u| crosses tanhClamp near
	// |x| = 4.84: take the float32 values on both sides of both crossings.
	for _, sign := range []float32{1, -1} {
		x := float32(4.8)
		for geluC*(x+geluK*x*x*x) < tanhClamp {
			x = math.Nextafter32(x, 5)
		}
		for i := 0; i < 12; i++ {
			x = math.Nextafter32(x, 0)
		}
		for i := 0; i < 24; i++ {
			special = append(special, sign*x)
			x = math.Nextafter32(x, 5)
		}
	}
	rng := stats.NewRand(11)
	random := func() float32 {
		switch rng.IntN(4) {
		case 0:
			return float32(rng.NormFloat64())
		case 1:
			return float32(rng.NormFloat64() * 4)
		case 2:
			return float32(math.Exp(rng.NormFloat64()*20)) * float32(1-2*rng.IntN(2))
		default:
			return special[rng.IntN(len(special))]
		}
	}

	defer SetGemmF32Asm(GemmF32Asm())
	for _, asm := range []bool{false, true} {
		if asm && !gemmAsmAvailable {
			continue
		}
		SetGemmF32Asm(asm)
		check := func(in []float32) {
			t.Helper()
			got := append([]float32(nil), in...)
			GeluF32(got)
			for i, x := range in {
				if want := gelu32(x); math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("asm=%v len %d: GeluF32[%d](%v = %#08x) = %v (%#08x), scalar gelu32 = %v (%#08x)",
						asm, len(in), i, x, math.Float32bits(x), got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
				}
			}
		}
		// Every special value in every lane position and in the scalar tail.
		for off := 0; off < 8; off++ {
			in := make([]float32, off, off+len(special)+7)
			in = append(in, special...)
			check(in)
		}
		for n := 0; n <= 40; n++ {
			for rep := 0; rep < 20; rep++ {
				in := make([]float32, n)
				for i := range in {
					in[i] = random()
				}
				check(in)
			}
		}
	}
}
