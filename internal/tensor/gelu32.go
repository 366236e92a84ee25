package tensor

// Float32 GELU of the F32 decoder's feed-forward layers, in two forms that
// agree bit for bit: an AVX2 8-lane kernel (geluF32Asm, dispatched by the
// same switch as the assembly GEMM) and the scalar gelu32 below, which is
// the portable path, the < 8-element tail and the reference the tests hold
// the kernel to. The kernel evaluates exactly gelu32's operation sequence —
// one multiply, add or divide per source operation, in source order, nothing
// contracted into an FMA — so an element's result does not depend on where in
// the slice it sits. The scalar code holds up its side by spelling every
// product that feeds an add as float32(a*b): the Go spec forbids fusing
// across an explicit conversion, so no compiler, GOAMD64 level or
// architecture may turn the pair into one differently-rounded FMA.

// tanh32 coefficients: the classic 13/6-degree rational minimax
// approximation (the Eigen/XNNPACK fast-tanh polynomial).
const (
	tanhClamp = 7.90531110763549805 // tanh(±clamp) rounds to ±1 in float32
	tanhA1    = 4.89352455891786e-03
	tanhA3    = 6.37261928875436e-04
	tanhA5    = 1.48572235717979e-05
	tanhA7    = 5.12229709037114e-08
	tanhA9    = -8.60467152213735e-11
	tanhA11   = 2.00018790482477e-13
	tanhA13   = -2.76076847742355e-16
	tanhB0    = 4.89352518554385e-03
	tanhB2    = 2.26843463243900e-03
	tanhB4    = 1.18534705686654e-04
	tanhB6    = 1.19825839466702e-06

	geluC = 0.7978845608028654 // sqrt(2/π)
	geluK = 0.044715
)

// geluConsts is the kernel's constant table, one 8-lane broadcast row per
// constant in the order gelu32_amd64.s indexes them. It is built from the
// constants the scalar code uses, so the two cannot drift apart.
var geluConsts = func() (t [17][8]float32) {
	for i, c := range [...]float32{
		geluK, geluC, tanhClamp, -tanhClamp,
		tanhA13, tanhA11, tanhA9, tanhA7, tanhA5, tanhA3, tanhA1,
		tanhB6, tanhB4, tanhB2, tanhB0,
		1, 0.5,
	} {
		for l := range t[i] {
			t[i][l] = c
		}
	}
	return t
}()

// GeluF32 applies the tanh-form GELU to every element of x in place.
func GeluF32(x []float32) {
	if n := len(x) &^ 7; n > 0 && gemmAsmEnabled.Load() {
		geluF32Asm(&x[0], n)
		x = x[n:]
	}
	for i, v := range x {
		x[i] = gelu32(v)
	}
}

// tanh32 is a float32 tanh via a rational approximation accurate to a few
// float32 ULP over the clamped range — indistinguishable from math.Tanh at
// float32 precision, at a fraction of its cost (no float64 round trip, no
// table lookups; ~10 multiplies and one divide).
func tanh32(x float32) float32 {
	if x > tanhClamp {
		x = tanhClamp
	} else if x < -tanhClamp {
		x = -tanhClamp
	}
	x2 := x * x
	p := tanhA11 + float32(x2*tanhA13)
	p = tanhA9 + float32(x2*p)
	p = tanhA7 + float32(x2*p)
	p = tanhA5 + float32(x2*p)
	p = tanhA3 + float32(x2*p)
	p = tanhA1 + float32(x2*p)
	q := tanhB4 + float32(x2*tanhB6)
	q = tanhB2 + float32(x2*q)
	q = tanhB0 + float32(x2*q)
	return x * p / q
}

// gelu32 is the tanh-form GELU at float32 precision (same formula as the
// float64 gelu of the reference decoder, computed through tanh32).
func gelu32(x float32) float32 {
	return 0.5 * x * (1 + tanh32(geluC*(x+float32(geluK*x*x*x))))
}
