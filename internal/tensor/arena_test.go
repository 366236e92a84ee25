package tensor

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"unsafe"
)

// tapeStep runs a representative forward+backward over the ops whose scratch
// is arena-routed (matmul, layernorm, dropout, cross-entropy), with its
// input built in a (the heap when a is nil), and returns the loss value and
// the weight gradient.
func tapeStep(a *Arena, rng *rand.Rand) (float64, []float64) {
	w := Randn(16, 8, 0.5, rng).Param()
	gain := New(1, 8)
	for i := range gain.Data {
		gain.Data[i] = 1
	}
	gain.Param()
	bias := New(1, 8).Param()
	x := a.New(12, 16)
	copy(x.Data, Randn(12, 16, 1, rng).Data)
	h := LayerNorm(MatMul(x, w), gain, bias, 1e-5)
	h = Dropout(h, 0.25, rng)
	targets := make([]int, 12)
	for i := range targets {
		targets[i] = i % 8
	}
	loss := CrossEntropy(h, targets)
	loss.Backward()
	return loss.Data[0], append([]float64(nil), w.Grad...)
}

// TestArenaValuesMatchHeap: routing the tape through an arena must not
// change a single bit of any value or gradient.
func TestArenaValuesMatchHeap(t *testing.T) {
	heapLoss, heapGrad := tapeStep(nil, rand.New(rand.NewPCG(7, 9)))
	arenaLoss, arenaGrad := tapeStep(NewArena(), rand.New(rand.NewPCG(7, 9)))
	if heapLoss != arenaLoss {
		t.Fatalf("loss: heap %v != arena %v", heapLoss, arenaLoss)
	}
	for i := range heapGrad {
		if heapGrad[i] != arenaGrad[i] {
			t.Fatalf("grad[%d]: heap %v != arena %v", i, heapGrad[i], arenaGrad[i])
		}
	}
}

// TestArenaReuse: after Reset the arena serves subsequent steps from the
// same slabs — the footprint stops growing after the first step, and fresh
// allocations come back zeroed despite the recycled memory.
func TestArenaReuse(t *testing.T) {
	a := NewArena()
	tapeStep(a, rand.New(rand.NewPCG(1, 2)))
	a.Reset()
	after1 := a.Footprint()
	for i := 0; i < 5; i++ {
		tapeStep(a, rand.New(rand.NewPCG(1, 2)))
		a.Reset()
	}
	if got := a.Footprint(); got != after1 {
		t.Fatalf("footprint grew across identical steps: %d -> %d floats", after1, got)
	}
	buf := a.Alloc(4096)
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("recycled alloc not zeroed at %d: %v", i, v)
		}
	}
	if a.Peak() == 0 {
		t.Fatal("peak usage not tracked")
	}
}

// owns reports whether s is carved from one of a's slabs.
func owns(a *Arena, s []float64) bool {
	if len(s) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(&s[0]))
	for _, slab := range a.slabs {
		lo := uintptr(unsafe.Pointer(&slab[0]))
		if p >= lo && p < lo+uintptr(len(slab))*8 {
			return true
		}
	}
	return false
}

// TestArenaInheritance pins the one rule of tape memory: an op result takes
// the arena of its first parent that has one, heap-only parents give a heap
// result, and a gradient lives beside its tensor's values — in the arena for
// tape tensors, on the heap for parameters.
func TestArenaInheritance(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 3))
	a := NewArena()
	w := Randn(3, 3, 1, rng).Param()
	x := a.New(2, 3)
	copy(x.Data, Randn(2, 3, 1, rng).Data)
	h := Tanh(MatMul(x, w))         // arena input first
	y := Add(SliceRows(w, 0, 2), h) // parameter first, arena second
	if h.arena != a || !owns(a, h.Data) || y.arena != a || !owns(a, y.Data) {
		t.Fatal("a result with an arena parent is not in that arena")
	}
	if p := Tanh(MatMul(Randn(2, 3, 1, rng), w)); p.arena != nil || owns(a, p.Data) {
		t.Fatal("a result of heap-only parents is in an arena")
	}
	Sum(y).Backward()
	if !owns(a, h.Grad) || !owns(a, y.Grad) {
		t.Fatal("an arena tensor's gradient is not in its arena")
	}
	if owns(a, w.Grad) {
		t.Fatal("a parameter's gradient is in the arena")
	}
	var nilArena *Arena
	if z := nilArena.New(2, 2); z.arena != nil || len(z.Data) != 4 {
		t.Fatal("a nil arena's New is not a heap tensor")
	}
}

// TestArenaOversizedAlloc: requests larger than a slab get a dedicated slab
// and survive Reset cycles.
func TestArenaOversizedAlloc(t *testing.T) {
	a := NewArena()
	big := a.Alloc(arenaSlabFloats * 3)
	if len(big) != arenaSlabFloats*3 {
		t.Fatalf("oversized alloc length %d", len(big))
	}
	a.Reset()
	if got := a.Alloc(arenaSlabFloats * 3); len(got) != arenaSlabFloats*3 {
		t.Fatalf("oversized re-alloc length %d", len(got))
	}
}

// TestArenaCutsTapeAllocations is the allocation regression guard for the
// arena'd kernels: a steady-state forward+backward step under the arena
// (parameters and inputs pre-built, as in a real training loop) must
// allocate well under half of what the heap path does — what remains is
// tape bookkeeping (tensor structs and closures), not float buffers.
func TestArenaCutsTapeAllocations(t *testing.T) {
	prev := SetParallelism(1)
	defer SetParallelism(prev)

	rng := rand.New(rand.NewPCG(3, 4))
	w := Randn(16, 8, 0.5, rng).Param()
	gain := New(1, 8)
	for i := range gain.Data {
		gain.Data[i] = 1
	}
	gain.Param()
	bias := New(1, 8).Param()
	xs := Randn(12, 16, 1, rng)
	targets := make([]int, 12)
	for i := range targets {
		targets[i] = i % 8
	}
	// Each step builds its input in the arena (or on the heap, a == nil),
	// as a trainer does.
	var a *Arena
	step := func() {
		x := a.New(12, 16)
		copy(x.Data, xs.Data)
		h := LayerNorm(MatMul(x, w), gain, bias, 1e-5)
		h = Dropout(h, 0.25, rng)
		CrossEntropy(h, targets).Backward()
		w.ZeroGrad()
		gain.ZeroGrad()
		bias.ZeroGrad()
	}

	heapAllocs := testing.AllocsPerRun(50, step)
	heapBytes := bytesPerRun(50, step)

	a = NewArena()
	arenaStep := func() {
		step()
		a.Reset()
	}
	arenaAllocs := testing.AllocsPerRun(50, arenaStep)
	arenaBytes := bytesPerRun(50, arenaStep)

	// The arena's win is measured in bytes: every float buffer of the tape
	// (values, grads, op scratch) moves off the heap. What remains is small
	// fixed bookkeeping (tensor structs, op closures), so bytes must drop
	// by far more than half; allocation count drops too, but less sharply.
	if arenaBytes*2 > heapBytes {
		t.Fatalf("arena step allocates %d B, heap step %d B — want < half", arenaBytes, heapBytes)
	}
	if arenaAllocs >= heapAllocs {
		t.Fatalf("arena step allocates %.0f objects, heap step %.0f — want fewer", arenaAllocs, heapAllocs)
	}
}

// bytesPerRun measures average heap bytes allocated per fn() call.
func bytesPerRun(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn() // warm-up outside the measured window
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return (m1.TotalAlloc - m0.TotalAlloc) / uint64(runs)
}

// TestAddRows covers the packed-minibatch positional lookup: forward
// x + table[idx], x's gradient passed through, the table's scatter-added
// into the selected rows, and the result in x's arena.
func TestAddRows(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	a := NewArena()
	table := Randn(6, 3, 1, rng).Param()
	idx := []int{0, 1, 2, 0, 1, 0}
	x := a.New(len(idx), 3).Param()
	copy(x.Data, Randn(len(idx), 3, 1, rng).Data)
	out := AddRows(x, table, idx)
	if out.arena != a {
		t.Fatal("AddRows result is not in x's arena")
	}
	for r, src := range idx {
		for c := 0; c < 3; c++ {
			if out.At(r, c) != x.At(r, c)+table.At(src, c) {
				t.Fatalf("row %d col %d", r, c)
			}
		}
	}
	Sum(out).Backward()
	counts := []float64{3, 2, 1, 0, 0, 0} // row 0 picked 3×, row 1 2×, row 2 1×
	for r, want := range counts {
		for c := 0; c < 3; c++ {
			if got := table.Grad[r*3+c]; got != want {
				t.Fatalf("table grad row %d col %d = %v, want %v", r, c, got, want)
			}
		}
	}
	for i, g := range x.Grad {
		if g != 1 {
			t.Fatalf("x grad[%d] = %v, want 1", i, g)
		}
	}
	if owns(a, table.Grad) || !owns(a, x.Grad) {
		t.Fatal("gradients not beside their tensors' values")
	}
}

// TestConcatRows covers the segment-reassembly op of packed attention.
func TestConcatRows(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	a := Randn(2, 3, 1, rng).Param()
	b := Randn(4, 3, 1, rng).Param()
	out := ConcatRows(a, b)
	if out.Rows != 6 || out.Cols != 3 {
		t.Fatalf("shape %d×%d", out.Rows, out.Cols)
	}
	for c := 0; c < 3; c++ {
		if out.At(1, c) != a.At(1, c) || out.At(2, c) != b.At(0, c) {
			t.Fatal("concat rows misplaced")
		}
	}
	Scale(Sum(out), 2).Backward()
	for _, p := range []*Tensor{a, b} {
		for i, g := range p.Grad {
			if g != 2 {
				t.Fatalf("grad[%d] = %v, want 2", i, g)
			}
		}
	}
}
