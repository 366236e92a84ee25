package tensor

import (
	"math"
	"math/big"
	"os"
	"runtime"
	"strings"
	"testing"

	"cptgpt/internal/stats"
)

// gemmF32Ref is a straightforward float64-accumulated reference over the
// row-major in×out weights w.
func gemmF32Ref(dst, w, bias, x []float32, rows, in, out int) {
	for r := 0; r < rows; r++ {
		for j := 0; j < out; j++ {
			acc := float64(bias[j])
			for i := 0; i < in; i++ {
				acc += float64(x[r*in+i]) * float64(w[i*out+j])
			}
			dst[r*out+j] = float32(acc)
		}
	}
}

// fmaChainRef computes GemmF32's documented assembly arithmetic from first
// principles: output (r, j) is acc = 0, acc = fma(x[r,i], w[i,j], acc) for
// i = 0 … in-1 — every fused multiply-add evaluated exactly in math/big and
// rounded once to float32 — then the float32 sum acc + bias[j]. w is
// row-major in×out.
func fmaChainRef(w, bias, x []float32, rows, in, out int) []float32 {
	dst := make([]float32, rows*out)
	bigs := func(v []float32) []big.Float {
		b := make([]big.Float, len(v))
		for i := range v {
			b[i].SetFloat64(float64(v[i]))
		}
		return b
	}
	xb, wb := bigs(x), bigs(w)
	// The exact sum of a float32 product and a float32 spans at most ~600
	// bits (exponents −298 … 254); 53 bits hold any float32 product exactly.
	var p, s big.Float
	s.SetPrec(1024)
	for r := 0; r < rows; r++ {
		for j := 0; j < out; j++ {
			var acc float32
			for i := 0; i < in; i++ {
				p.Mul(&xb[r*in+i], &wb[i*out+j])
				s.SetFloat64(float64(acc))
				s.Add(&s, &p)
				acc, _ = s.Float32()
			}
			dst[r*out+j] = acc + bias[j]
		}
	}
	return dst
}

func randF32(n int, seed uint64) []float32 {
	rng := stats.NewRand(seed)
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// packed returns the row-major in×out matrix w in GemmF32's layout.
func packed(w []float32, in, out int) []float32 {
	p := make([]float32, in*out)
	PackF32(p, w, in, out)
	return p
}

// GemmF32's tile sets, by the name TestGemmKernelSet logs.
const (
	setAVX512   = "avx512"
	setAVX2     = "avx2"
	setPortable = "portable"
)

// kernelSets lists the GemmF32 tile sets this machine runs, fastest first.
func kernelSets() []string {
	var sets []string
	if gemmZmmAvailable {
		sets = append(sets, setAVX512)
	}
	if gemmAsmAvailable {
		sets = append(sets, setAVX2)
	}
	return append(sets, setPortable)
}

// useKernelSet makes GemmF32 dispatch to set and returns the restore.
func useKernelSet(set string) (restore func()) {
	asm := SetGemmF32Asm(set != setPortable)
	zmm := setGemmF32Zmm(set == setAVX512)
	return func() {
		SetGemmF32Asm(asm)
		setGemmF32Zmm(zmm)
	}
}

// kernelSet names the tile set GemmF32 dispatches to now.
func kernelSet() string {
	switch {
	case !GemmF32Asm():
		return setPortable
	case gemmZmm.Load():
		return setAVX512
	default:
		return setAVX2
	}
}

// TestGemmKernelSet logs which tile set GemmF32 runs on this machine, so a
// CI log shows whether the AVX-512 tiles were exercised at all, and checks
// that the default is the fastest set the CPU has.
func TestGemmKernelSet(t *testing.T) {
	got := kernelSet()
	t.Logf("GemmF32 kernel set: %s (available: %v)", got, kernelSets())
	if got != setAVX512 {
		t.Log("AVX-512 tiles not exercised on this machine")
	}
	if want := kernelSets()[0]; got != want {
		t.Fatalf("default kernel set %s, want the fastest available, %s", got, want)
	}
}

// TestGemmCPUProbe holds the CPUID/XGETBV probes to the kernel's view of the
// CPU: on Linux, the AVX2 tiles are available exactly when /proc/cpuinfo
// lists avx2 and fma, and the AVX-512 tiles exactly when it also lists
// avx512f (which the kernel shows only when it saves ZMM state). A wrong bit
// would otherwise pick AVX2 forever, or ZMM on an OS that does not save it.
func TestGemmCPUProbe(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skip("probe checked against /proc/cpuinfo on linux/amd64")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	avx2 := flags["avx2"] && flags["fma"]
	if gemmAsmAvailable != avx2 {
		t.Errorf("AVX2+FMA probe %v, /proc/cpuinfo avx2 && fma %v", gemmAsmAvailable, avx2)
	}
	if want := avx2 && flags["avx512f"]; gemmZmmAvailable != want {
		t.Errorf("AVX-512F probe %v, /proc/cpuinfo avx2 && fma && avx512f %v", gemmZmmAvailable, want)
	}
}

// portableRef computes the portable kernel's documented arithmetic from the
// unpacked row-major in×out matrix w: the dot4F32 / dot2F32 / dot1F32 blocks
// of the matvec it replaced, reading a block's weights at stride out. Panel
// widths are multiples of 4 but for the last, so each output gets the same
// block kind — and bits — packed or not.
func portableRef(w, bias, x []float32, rows, in, out int) []float32 {
	dst := make([]float32, rows*out)
	for r := 0; r < rows; r++ {
		xr, d := x[r*in:(r+1)*in], dst[r*out:(r+1)*out]
		j := 0
		for ; j+4 <= out; j += 4 {
			r0, r1, r2, r3 := dot4F32(xr, w[j:], out)
			d[j], d[j+1], d[j+2], d[j+3] = bias[j]+r0, bias[j+1]+r1, bias[j+2]+r2, bias[j+3]+r3
		}
		if j+2 <= out {
			r0, r1 := dot2F32(xr, w[j:], out)
			d[j], d[j+1] = bias[j]+r0, bias[j+1]+r1
			j += 2
		}
		if j < out {
			d[j] = bias[j] + dot1F32(xr, w[j:], out)
		}
	}
	return dst
}

// TestPackF32Layout pins PackF32 to the panel layout's definition — 16-wide
// panels, then an 8-wide one if 8 outputs remain, then the rest, weight
// (i, j0+l) of the panel at output j0 stored at j0*in + i*width + l — for
// widths that end on every kind of panel.
func TestPackF32Layout(t *testing.T) {
	for _, out := range []int{1, 5, 8, 13, 16, 17, 24, 29, 32, 40, 1024} {
		for _, in := range []int{1, 3, 8} {
			w := make([]float64, in*out)
			for k := range w {
				w[k] = float64(k)
			}
			p := make([]float32, in*out)
			PackF32(p, w, in, out)
			seen := make([]bool, in*out)
			for i := 0; i < in; i++ {
				for j := 0; j < out; j++ {
					j0, width := j&^15, 16
					if out-j0 < 16 {
						j0 = j &^ 7
						width = min(8, out-j0)
					}
					at := j0*in + i*width + j - j0
					if p[at] != float32(w[i*out+j]) || seen[at] {
						t.Fatalf("out %d in %d: weight (%d, %d) not at %d exactly once", out, in, i, j, at)
					}
					seen[at] = true
				}
			}
		}
	}
}

// gemmGuarded runs GemmF32 into a dst one row longer than the product and
// returns the product's rows*out outputs, failing t if the kernel wrote into
// the extra row: a tile that stores a row it was not given would clobber
// whatever the caller keeps behind the product.
func gemmGuarded(t *testing.T, w, bias, x []float32, rows, in, out int) []float32 {
	t.Helper()
	const guard = 0x7fc0dead // a NaN no kernel computes
	dst := make([]float32, (rows+1)*out)
	for i := range dst {
		dst[i] = math.Float32frombits(guard)
	}
	GemmF32(dst, w, bias, x, rows, in, out)
	for i, v := range dst[rows*out:] {
		if math.Float32bits(v) != guard {
			t.Fatalf("%s %d×%d→%d: wrote %v past the product, at output %d of the row after it",
				kernelSet(), rows, in, out, v, i)
		}
	}
	return dst[:rows*out]
}

// TestGemmF32Shapes exercises every kernel set over awkward shapes (reduction
// lengths of 1, panel remainders of every width, 1-row and odd-row counts,
// row counts that span several of the assembly path's row tiles, and every
// row count of tileRows against the widths of 16-wide panels), comparing
// against the float64 reference within a float32 reduction-error tolerance.
func TestGemmF32Shapes(t *testing.T) {
	type shape struct{ rows, in, out int }
	shapes := []shape{
		{1, 1, 1}, {1, 7, 3}, {2, 8, 2}, {3, 10, 5}, {4, 128, 128},
		{5, 128, 1024}, {4, 1024, 128}, {2, 33, 7}, {3, 40, 6}, {6, 64, 2},
		{1, 130, 1}, {7, 9, 9}, {19, 1024, 5}, {3, 9000, 2}, {9, 24, 29},
		{5, 17, 40}, {13, 100, 200},
	}
	for _, rows := range tileRows {
		for _, out := range []int{16, 48, 64, 80, 128, 144, 1024} {
			shapes = append(shapes, shape{rows, 40, out})
		}
	}
	defer useKernelSet(kernelSet())()
	for _, set := range kernelSets() {
		useKernelSet(set)
		for _, s := range shapes {
			w := randF32(s.out*s.in, 1)
			bias := randF32(s.out, 2)
			x := randF32(s.rows*s.in, 3)
			want := make([]float32, s.rows*s.out)
			got := gemmGuarded(t, packed(w, s.in, s.out), bias, x, s.rows, s.in, s.out)
			gemmF32Ref(want, w, bias, x, s.rows, s.in, s.out)
			for i := range want {
				diff := math.Abs(float64(got[i] - want[i]))
				// Allow float32 reduction error growing with the length.
				tol := 1e-5 * (1 + math.Abs(float64(want[i]))) * math.Sqrt(float64(s.in))
				if diff > tol || math.IsNaN(float64(got[i])) {
					t.Fatalf("%s shape %v: dst[%d] = %v, want %v (|Δ| %.2e > %.2e)",
						set, s, i, got[i], want[i], diff, tol)
				}
			}
		}
	}
}

// Shapes that reach every path of the assembly tiles: rows through the
// 8-row and 4-row tiles alone and together (8, 4, 12, 24, 32), one to three
// rows left over after each (the 1×64 / 1×128 tiles, or 3×64 for two or
// three), and several row tiles at once (33 at in = 1024); reductions of one
// element up to a whole FF-out row; outputs that are only a masked remainder
// (1, 2), only an 8-wide panel, one 16-wide panel (16: 4×16 alone, 1×16), a
// 16-wide panel plus a one-lane remainder (17), plus an 8-wide one (24), an
// even number of 16-wide panels (32, 64, 128, 1024), an odd one (48, 80,
// 144: the 8×32 / 4×32 pairs plus the AVX2 4×16 on the last), panels in
// fours (64, 128, 1024: 3×64 for two or three leftover rows) or not (32, 48,
// 80, 144: those rows go 1×128 / 1×16), and leftover single panels after the
// 1×64 groups (48, 80, 144) and the 1×128 ones (144).
var (
	tileRows = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 24, 31, 32, 33}
	tileIns  = []int{1, 7, 24, 128, 1024}
	tileOuts = []int{1, 2, 8, 16, 17, 24, 32, 48, 64, 80, 128, 144, 1024}
)

// TestGemmF32Bitwise holds every kernel set to its documented arithmetic bit
// for bit, for every shape of tileRows × tileIns × tileOuts. Under both
// assembly sets every output is fmaChainRef's — whichever tile (8×32, 4×32,
// 4×16, 3×64, 1×128, 1×64, 1×16, masked 8-lane) computed it — and no tile
// writes past the rows it was given. That reference is
// exact big-float arithmetic, so the test also pins that the tiles do fuse
// (one rounding per step) and add the bias last. The portable set is held to
// portableRef, its dot blocks over the unpacked matrix.
func TestGemmF32Bitwise(t *testing.T) {
	defer useKernelSet(kernelSet())()
	for _, in := range tileIns {
		for _, out := range tileOuts {
			if in*out > 128*1024 {
				continue // the reference costs ~0.3 µs per multiply-add
			}
			// The reference covers 15 rows — 33 only while it is cheap — and
			// each GEMM below reads its first rows of them.
			refRows := 33
			if in*out > 24*1024 {
				refRows = 15
			}
			w := randF32(in*out, uint64(in*out))
			bias := randF32(out, uint64(out))
			x := randF32(refRows*in, uint64(in+out))
			chain, scalar := fmaChainRef(w, bias, x, refRows, in, out), portableRef(w, bias, x, refRows, in, out)
			pw := packed(w, in, out)
			for _, set := range kernelSets() {
				useKernelSet(set)
				want := chain
				if set == setPortable {
					want = scalar
				}
				for _, rows := range tileRows {
					if rows > refRows {
						continue
					}
					got := gemmGuarded(t, pw, bias, x, rows, in, out)
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s %d×%d→%d: dst[%d] (row %d, out %d) = %v, reference %v",
								set, rows, in, out, i, i/out, i%out, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// FuzzGemmF32 generalises TestGemmF32Bitwise to drawn shapes (rows 1–40,
// in and out 1–300) and drawn values — normals of every size the chain
// cannot overflow at, ±0 and subnormals — under every kernel set: the
// assembly sets against the same math/big reference, the portable one
// against the float64 reference, and none may write past the product. The
// seed corpus runs under plain go test; its last seeds put 8, 11 and 19 rows
// (one 8×32 group, then one or two with three rows left for 3×64) on 64 and
// 128 outputs.
func FuzzGemmF32(f *testing.F) {
	f.Add(uint8(5), uint16(7), uint16(17), uint64(1))
	f.Add(uint8(1), uint16(300), uint16(24), uint64(2))
	f.Add(uint8(40), uint16(3), uint16(300), uint64(3))
	f.Add(uint8(3), uint16(64), uint16(48), uint64(4))
	f.Add(uint8(9), uint16(20), uint16(80), uint64(5))
	for i, rows := range []uint8{8, 11, 19} {
		f.Add(rows-1, uint16(40), uint16(63), uint64(6+2*i))
		f.Add(rows-1, uint16(40), uint16(127), uint64(7+2*i))
	}
	f.Fuzz(func(t *testing.T, rows8 uint8, in16, out16 uint16, seed uint64) {
		rows, in, out := 1+int(rows8)%40, 1+int(in16)%300, 1+int(out16)%300
		rng := stats.NewRand(seed)
		value := func() float32 {
			switch rng.IntN(8) {
			case 0:
				return float32(math.Copysign(0, rng.NormFloat64()))
			case 1: // subnormal
				v := math.Float32frombits(uint32(1 + rng.IntN(1<<23-1)))
				return float32(math.Copysign(float64(v), rng.NormFloat64()))
			case 2: // any exponent the chain cannot overflow at
				return float32(rng.NormFloat64() * math.Exp2(float64(rng.IntN(60)-40)))
			default:
				return float32(rng.NormFloat64())
			}
		}
		fill := func(n int) []float32 {
			s := make([]float32, n)
			for i := range s {
				s[i] = value()
			}
			return s
		}
		w, bias, x := fill(in*out), fill(out), fill(rows*in)
		pw := packed(w, in, out)
		var chain []float32 // the FMA-chain reference, computed once
		defer useKernelSet(kernelSet())()
		for _, set := range kernelSets() {
			useKernelSet(set)
			got := gemmGuarded(t, pw, bias, x, rows, in, out)
			if set != setPortable {
				if chain == nil {
					chain = fmaChainRef(w, bias, x, rows, in, out)
				}
				for i := range got {
					if math.Float32bits(got[i]) != math.Float32bits(chain[i]) {
						t.Fatalf("%s %d×%d→%d: dst[%d] = %v (%#08x), FMA-chain reference %v (%#08x)",
							set, rows, in, out, i, got[i], math.Float32bits(got[i]), chain[i], math.Float32bits(chain[i]))
					}
				}
				continue
			}
			want := make([]float32, rows*out)
			gemmF32Ref(want, w, bias, x, rows, in, out)
			for r := 0; r < rows; r++ {
				for j := 0; j < out; j++ {
					var mag float64 // Σ|x·w| + |b|: the error scale of the sum
					for i := 0; i < in; i++ {
						mag += math.Abs(float64(x[r*in+i]) * float64(w[i*out+j]))
					}
					mag += math.Abs(float64(bias[j]))
					k := r*out + j
					if diff := math.Abs(float64(got[k]) - float64(want[k])); diff > 1e-6*float64(in)*mag+1e-37 {
						t.Fatalf("portable %d×%d→%d: dst[%d] = %v, float64 reference %v", rows, in, out, k, got[k], want[k])
					}
				}
			}
		}
	})
}

// TestGemmF32RowIndependent pins the contract the decoder's determinism
// rests on, for every kernel set: a row's outputs do not depend on the rows
// batched with it, so a k-row GEMM equals k one-row GEMMs exactly — and
// MatVecGroupF32, the strided front, returns the same rows for any grouping
// (a consecutive run over compact rows, gaps, reordering, padded strides).
func TestGemmF32RowIndependent(t *testing.T) {
	const rows, in, out = 7, 2051, 19 // 4-row tiles on the assembly path
	w := packed(randF32(out*in, 4), in, out)
	bias := randF32(out, 5)
	x := randF32(rows*in, 6)
	defer useKernelSet(kernelSet())()
	for _, set := range kernelSets() {
		useKernelSet(set)
		want := make([]float32, rows*out)
		for r := 0; r < rows; r++ {
			GemmF32(want[r*out:(r+1)*out], w, bias, x[r*in:(r+1)*in], 1, in, out)
		}
		got := make([]float32, rows*out)
		GemmF32(got, w, bias, x, rows, in, out)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %d-row gemm[%d] = %v, one-row %v", set, rows, i, got[i], want[i])
			}
		}

		for _, group := range [][]int{{0, 1, 2, 3, 4, 5, 6}, {5, 0, 1, 2, 6}, {3}, {6, 4, 2}} {
			clear(got)
			MatVecGroupF32(got, out, w, bias, x, in, in, out, group)
			for _, s := range group {
				for j := 0; j < out; j++ {
					if got[s*out+j] != want[s*out+j] {
						t.Fatalf("%s group %v: row %d out %d = %v, want %v", set, group, s, j, got[s*out+j], want[s*out+j])
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
		MatVecGroupF32(dp, ds, w, bias, xp, xs, in, out, []int{0, 1, 2, 4})
		for _, s := range []int{0, 1, 2, 4} {
			for j := 0; j < out; j++ {
				if dp[s*ds+j] != want[s*out+j] {
					t.Fatalf("%s padded: row %d out %d = %v, want %v", set, s, j, dp[s*ds+j], want[s*out+j])
				}
			}
		}

		// Generated shapes: every row count of tileRows against reductions
		// that make the assembly path's row tiles 4 to 64 rows (and 1024-row
		// ones for in = 1 and 7) and outputs that run every tile — a row may
		// land in any position of an 8-row or 4-row tile, in a 3×64, 1×128
		// or 1×64 leftover or in a masked pass, and its bits may not care. Rows [33-grows, 33) are
		// taken, so every row is tried at every position.
		const maxRows = 33
		for _, gin := range append([]int{9, 31, 33, 1170, 2730, 9000}, tileIns...) {
			for _, gout := range append([]int{3, 5}, tileOuts...) {
				if gin*gout > 1<<20 {
					continue
				}
				gw := randF32(gout*gin, uint64(gin))
				gb := randF32(gout, uint64(gout))
				gx := randF32(maxRows*gin, uint64(gin+gout))
				gp := packed(gw, gin, gout)
				one := make([]float32, maxRows*gout)
				for r := 0; r < maxRows; r++ {
					GemmF32(one[r*gout:(r+1)*gout], gp, gb, gx[r*gin:(r+1)*gin], 1, gin, gout)
				}
				for _, grows := range tileRows {
					off := maxRows - grows
					many := make([]float32, grows*gout)
					GemmF32(many, gp, gb, gx[off*gin:], grows, gin, gout)
					for i := range many {
						if math.Float32bits(many[i]) != math.Float32bits(one[off*gout+i]) {
							t.Fatalf("%s %d×%d→%d: multi-row dst[%d] = %v, one-row call %v", set, grows, gin, gout, i, many[i], one[off*gout+i])
						}
					}
				}
			}
		}
	}
}

// TestGemmF32Deterministic requires repeated calls to produce identical bits
// (each kernel set has a fixed reduction order).
func TestGemmF32Deterministic(t *testing.T) {
	const rows, in, out = 4, 129, 33
	w := randF32(out*in, 7)
	bias := randF32(out, 8)
	x := randF32(rows*in, 9)
	defer useKernelSet(kernelSet())()
	for _, set := range kernelSets() {
		useKernelSet(set)
		a := make([]float32, rows*out)
		b := make([]float32, rows*out)
		GemmF32(a, w, bias, x, rows, in, out)
		GemmF32(b, w, bias, x, rows, in, out)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: nondeterministic at %d: %v vs %v", set, i, a[i], b[i])
			}
		}
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

// BenchmarkGemmF32 times every kernel set the machine runs against the
// paper-scale panels at the row counts the decoder packs: a full plain batch
// (32 rows), one 8-row tile (8), a tile plus three leftover rows (11), one
// verify chain (5), the few rows of a draining batch (3) and its last (1).
func BenchmarkGemmF32(b *testing.B) {
	for _, c := range []struct {
		name          string
		rows, in, out int
	}{
		{"32x128x1024", 32, 128, 1024},
		{"32x1024x128", 32, 1024, 128},
		{"32x128x128", 32, 128, 128},
		{"16x128x1024", 16, 128, 1024},
		{"16x1024x128", 16, 1024, 128},
		{"11x128x1024", 11, 128, 1024},
		{"11x1024x128", 11, 1024, 128},
		{"8x128x1024", 8, 128, 1024},
		{"8x1024x128", 8, 1024, 128},
		{"5x128x1024", 5, 128, 1024},
		{"5x1024x128", 5, 1024, 128},
		{"5x128x128", 5, 128, 128},
		{"3x128x1024", 3, 128, 1024},
		{"3x1024x128", 3, 1024, 128},
		{"1x128x128", 1, 128, 128},
	} {
		w := packed(randF32(c.out*c.in, 1), c.in, c.out)
		bias := randF32(c.out, 2)
		x := randF32(c.rows*c.in, 3)
		dst := make([]float32, c.rows*c.out)
		for _, set := range kernelSets() {
			b.Run(c.name+"/set="+set, func(b *testing.B) {
				defer useKernelSet(set)()
				b.SetBytes(int64(4 * c.in * c.out))
				for i := 0; i < b.N; i++ {
					GemmF32(dst, w, bias, x, c.rows, c.in, c.out)
				}
				b.ReportMetric(float64(b.N)*float64(c.rows)*float64(c.in)*float64(c.out)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
	}
}
