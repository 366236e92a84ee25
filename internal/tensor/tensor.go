// Package tensor implements a compact reverse-mode automatic
// differentiation engine over dense row-major float64 matrices. It is the
// substitute for the paper's PyTorch substrate (see docs/ARCHITECTURE.md,
// "What stands in for the paper's substrate"): the transformer, the
// GAN/LSTM baseline and every training loop in this repository are built on
// the primitives here.
//
// The engine follows the familiar tape design: each operation returns a new
// Tensor holding its value, links to its parents, and a closure that folds
// the output gradient back into the parents' gradients. Calling Backward on
// a scalar loss topologically sorts the tape and runs the closures in
// reverse. Operations on tensors that do not require gradients skip tape
// construction entirely, which makes inference allocation-light. A tape's
// float buffers come from the heap, or from the Arena its inputs were built
// in: op results inherit their parents' arena (see arena.go).
package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync/atomic"
)

// Tensor is a dense row-major matrix (rank ≤ 2; vectors are 1×n or n×1
// matrices, scalars are 1×1) participating in automatic differentiation.
type Tensor struct {
	// Data holds the values in row-major order, len = Rows*Cols.
	Data []float64
	// Grad accumulates ∂loss/∂Data; nil until first needed.
	Grad []float64
	// Rows and Cols give the matrix shape.
	Rows, Cols int

	requiresGrad bool
	arena        *Arena // where Data (and Grad) came from; nil is the heap
	parents      []*Tensor
	backFn       func(out *Tensor)
	visit        uint64 // topoSort generation mark (see Backward)
	op           string
}

// New returns a zero-valued rows×cols tensor that does not require grad.
// Its buffer always comes from the heap, so it may outlive any arena Reset —
// use New for parameters and other persistent tensors.
func New(rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %d×%d", rows, cols))
	}
	return &Tensor{Data: make([]float64, rows*cols), Rows: rows, Cols: cols}
}

// FromSlice wraps data (not copied) as a rows×cols tensor.
func FromSlice(rows, cols int, data []float64) *Tensor {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d values for %d×%d", len(data), rows, cols))
	}
	return &Tensor{Data: data, Rows: rows, Cols: cols}
}

// Scalar returns a 1×1 tensor holding v.
func Scalar(v float64) *Tensor {
	return FromSlice(1, 1, []float64{v})
}

// Randn fills a new rows×cols tensor with N(0, std²) values drawn from rng.
// A nil rng leaves it zero: the build of a model whose values are about to
// be overwritten (a model file's load) draws nothing.
func Randn(rows, cols int, std float64, rng *rand.Rand) *Tensor {
	t := New(rows, cols)
	if rng == nil {
		return t
	}
	for i := range t.Data {
		t.Data[i] = std * rng.NormFloat64()
	}
	return t
}

// Param marks t as a trainable parameter (requires grad) and returns it.
func (t *Tensor) Param() *Tensor {
	t.requiresGrad = true
	return t
}

// RequiresGrad reports whether gradients flow into t.
func (t *Tensor) RequiresGrad() bool { return t.requiresGrad }

// At returns element (r, c).
func (t *Tensor) At(r, c int) float64 { return t.Data[r*t.Cols+c] }

// Set assigns element (r, c).
func (t *Tensor) Set(r, c int, v float64) { t.Data[r*t.Cols+c] = v }

// Numel returns the number of elements.
func (t *Tensor) Numel() int { return len(t.Data) }

// String renders the shape and op for debugging.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor(%d×%d, op=%s, grad=%v)", t.Rows, t.Cols, t.op, t.requiresGrad)
}

// ensureGrad allocates the gradient buffer on first use, from t's own
// arena: tape tensors keep their gradients beside their values, and
// parameters (heap tensors) get heap gradients, which must survive until the
// optimizer consumes them.
func (t *Tensor) ensureGrad() []float64 {
	if t.Grad == nil {
		t.Grad = t.arena.Alloc(len(t.Data))
	}
	return t.Grad
}

// ZeroGrad clears t's gradient buffer (keeping its allocation).
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

// child constructs a result tensor wired to its parents when any of them
// requires grad; back is only retained in that case. Its buffer comes from
// the arena of its first parent that has one, else from the heap: the one
// rule by which op results join a tape.
func child(rows, cols int, op string, back func(out *Tensor), parents ...*Tensor) *Tensor {
	var a *Arena
	need := false
	for _, p := range parents {
		if p != nil {
			if a == nil {
				a = p.arena
			}
			need = need || p.requiresGrad
		}
	}
	// Raw (non-zeroed) arena memory: every op overwrites its full output in
	// the forward pass, except CausalSoftmax and MeanRows, which clear it
	// explicitly.
	out := &Tensor{Data: a.AllocRaw(rows * cols), Rows: rows, Cols: cols, arena: a, op: op}
	if need {
		out.requiresGrad = true
		out.parents = parents
		// Stored as func(*Tensor) and invoked with the node itself, so no
		// extra closure is allocated per op just to capture out.
		out.backFn = back
	}
	return out
}

// Backward runs reverse-mode differentiation from t, which must be a 1×1
// scalar (a loss). Gradients accumulate into every reachable tensor with
// RequiresGrad; call ZeroGrad on parameters between steps.
func (t *Tensor) Backward() {
	if t.Rows != 1 || t.Cols != 1 {
		panic(fmt.Sprintf("tensor: Backward on non-scalar %d×%d", t.Rows, t.Cols))
	}
	order := topoSort(t)
	g := t.ensureGrad()
	g[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		if order[i].backFn != nil {
			order[i].backFn(order[i])
		}
	}
}

// visitGen issues a fresh generation per topoSort (atomically, so
// concurrent Backward calls over disjoint tapes stay as safe as they were
// with the old per-call map); a tensor is "visited" when its visit field
// equals the current generation. This replaces the per-Backward map (and
// its rehashing) with one field write per node. Backward has never
// supported running concurrently over tapes that *share* tensors (gradient
// accumulation would race), and the marks add no new constraint beyond
// that.
var visitGen atomic.Uint64

func topoSort(root *Tensor) []*Tensor {
	gen := visitGen.Add(1)
	var order []*Tensor
	// Iterative DFS to avoid deep recursion on long tapes.
	type frame struct {
		t    *Tensor
		next int
	}
	stack := []frame{{t: root}}
	root.visit = gen
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.t.parents) {
			p := f.t.parents[f.next]
			f.next++
			if p != nil && p.visit != gen && p.requiresGrad {
				p.visit = gen
				stack = append(stack, frame{t: p})
			}
			continue
		}
		order = append(order, f.t)
		stack = stack[:len(stack)-1]
	}
	return order
}

// parallelRows runs fn over [0, rows) sharded across the package worker
// pool when work is large enough, otherwise inline (see parallel.go).
func parallelRows(rows, workPerRow int, fn func(lo, hi int)) {
	ParallelFor(rows, workPerRow, fn)
}

// MatMul returns a·b for a (m×k) and b (k×n).
func MatMul(a, b *Tensor) *Tensor {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := child(a.Rows, b.Cols, "matmul", func(out *Tensor) {
		if a.requiresGrad {
			matmulAccBT(a.ensureGrad(), out.Grad, b.Data, out.Rows, out.Cols, b.Rows)
		}
		if b.requiresGrad {
			matmulAccT(b.ensureGrad(), a.Data, out.Grad, a.Rows, a.Cols, out.Cols)
		}
	}, a, b)
	matmulInto(out.Data, a.Data, b.Data, a.Rows, a.Cols, b.Cols)
	return out
}

// Add returns a+b elementwise; b may also be a 1×cols row vector, which is
// broadcast over a's rows (the bias-add case).
func Add(a, b *Tensor) *Tensor {
	switch {
	case a.Rows == b.Rows && a.Cols == b.Cols:
		out := child(a.Rows, a.Cols, "add", func(out *Tensor) {
			if a.requiresGrad {
				g := a.ensureGrad()
				for i, v := range out.Grad {
					g[i] += v
				}
			}
			if b.requiresGrad {
				g := b.ensureGrad()
				for i, v := range out.Grad {
					g[i] += v
				}
			}
		}, a, b)
		for i := range out.Data {
			out.Data[i] = a.Data[i] + b.Data[i]
		}
		return out
	case b.Rows == 1 && b.Cols == a.Cols:
		out := child(a.Rows, a.Cols, "add_bcast", func(out *Tensor) {
			if a.requiresGrad {
				g := a.ensureGrad()
				for i, v := range out.Grad {
					g[i] += v
				}
			}
			if b.requiresGrad {
				g := b.ensureGrad()
				for r := 0; r < out.Rows; r++ {
					row := out.Grad[r*out.Cols : (r+1)*out.Cols]
					for j, v := range row {
						g[j] += v
					}
				}
			}
		}, a, b)
		for r := 0; r < a.Rows; r++ {
			ar := a.Data[r*a.Cols : (r+1)*a.Cols]
			or := out.Data[r*a.Cols : (r+1)*a.Cols]
			for j := range or {
				or[j] = ar[j] + b.Data[j]
			}
		}
		return out
	default:
		panic(fmt.Sprintf("tensor: Add shape mismatch %d×%d + %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// Sub returns a−b elementwise (same shape only).
func Sub(a, b *Tensor) *Tensor {
	return Add(a, Scale(b, -1))
}

// Mul returns the elementwise (Hadamard) product of same-shaped tensors.
func Mul(a, b *Tensor) *Tensor {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %d×%d ⊙ %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := child(a.Rows, a.Cols, "mul", func(out *Tensor) {
		if a.requiresGrad {
			g := a.ensureGrad()
			for i, v := range out.Grad {
				g[i] += v * b.Data[i]
			}
		}
		if b.requiresGrad {
			g := b.ensureGrad()
			for i, v := range out.Grad {
				g[i] += v * a.Data[i]
			}
		}
	}, a, b)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// Scale returns a·s for scalar s.
func Scale(a *Tensor, s float64) *Tensor {
	out := child(a.Rows, a.Cols, "scale", func(out *Tensor) {
		if a.requiresGrad {
			g := a.ensureGrad()
			for i, v := range out.Grad {
				g[i] += v * s
			}
		}
	}, a)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * s
	}
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Tensor) *Tensor {
	out := child(a.Cols, a.Rows, "transpose", func(out *Tensor) {
		if a.requiresGrad {
			g := a.ensureGrad()
			for r := 0; r < out.Rows; r++ {
				for c := 0; c < out.Cols; c++ {
					g[c*a.Cols+r] += out.Grad[r*out.Cols+c]
				}
			}
		}
	}, a)
	for r := 0; r < a.Rows; r++ {
		for c := 0; c < a.Cols; c++ {
			out.Data[c*out.Cols+r] = a.Data[r*a.Cols+c]
		}
	}
	return out
}

// SliceCols returns the column slice a[:, lo:hi] as a copy participating in
// the tape (gradients route back to the sliced columns).
func SliceCols(a *Tensor, lo, hi int) *Tensor {
	if lo < 0 || hi > a.Cols || lo >= hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d:%d] of %d cols", lo, hi, a.Cols))
	}
	w := hi - lo
	out := child(a.Rows, w, "slice_cols", func(out *Tensor) {
		if a.requiresGrad {
			g := a.ensureGrad()
			for r := 0; r < out.Rows; r++ {
				src := out.Grad[r*w : (r+1)*w]
				dst := g[r*a.Cols+lo : r*a.Cols+hi]
				for i, v := range src {
					dst[i] += v
				}
			}
		}
	}, a)
	for r := 0; r < a.Rows; r++ {
		copy(out.Data[r*w:(r+1)*w], a.Data[r*a.Cols+lo:r*a.Cols+hi])
	}
	return out
}

// ConcatCols concatenates tensors with equal row counts along columns.
func ConcatCols(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatCols of nothing")
	}
	rows := ts[0].Rows
	total := 0
	for _, t := range ts {
		if t.Rows != rows {
			panic("tensor: ConcatCols row mismatch")
		}
		total += t.Cols
	}
	parents := append([]*Tensor(nil), ts...)
	out := child(rows, total, "concat_cols", func(out *Tensor) {
		off := 0
		for _, t := range parents {
			if t.requiresGrad {
				g := t.ensureGrad()
				for r := 0; r < rows; r++ {
					src := out.Grad[r*total+off : r*total+off+t.Cols]
					dst := g[r*t.Cols : (r+1)*t.Cols]
					for i, v := range src {
						dst[i] += v
					}
				}
			}
			off += t.Cols
		}
	}, parents...)
	off := 0
	for _, t := range ts {
		for r := 0; r < rows; r++ {
			copy(out.Data[r*total+off:r*total+off+t.Cols], t.Data[r*t.Cols:(r+1)*t.Cols])
		}
		off += t.Cols
	}
	return out
}

// SliceRows returns the row slice a[lo:hi, :] as a tape-participating copy.
func SliceRows(a *Tensor, lo, hi int) *Tensor {
	if lo < 0 || hi > a.Rows || lo >= hi {
		panic(fmt.Sprintf("tensor: SliceRows [%d:%d] of %d rows", lo, hi, a.Rows))
	}
	n := hi - lo
	out := child(n, a.Cols, "slice_rows", func(out *Tensor) {
		if a.requiresGrad {
			g := a.ensureGrad()
			for i, v := range out.Grad {
				g[lo*a.Cols+i] += v
			}
		}
	}, a)
	copy(out.Data, a.Data[lo*a.Cols:hi*a.Cols])
	return out
}

// AddRows returns x + table[idx]: row r of x plus row idx[r] of table, the
// packed-minibatch positional-embedding lookup. The table gradient folds
// back serially in ascending row order, so when segments of idx are stacked
// stream-by-stream the accumulation order matches processing the streams
// one at a time — a bit-exactness requirement of the packed trainer. Being
// one op, the result takes x's arena even when table is a parameter.
func AddRows(x, table *Tensor, idx []int) *Tensor {
	if len(idx) != x.Rows || table.Cols != x.Cols {
		panic(fmt.Sprintf("tensor: AddRows of %d×%d and %d rows of %d×%d", x.Rows, x.Cols, len(idx), table.Rows, table.Cols))
	}
	for _, r := range idx {
		if r < 0 || r >= table.Rows {
			panic(fmt.Sprintf("tensor: AddRows index %d out of %d rows", r, table.Rows))
		}
	}
	rows := append([]int(nil), idx...)
	c := x.Cols
	out := child(x.Rows, c, "add_rows", func(out *Tensor) {
		if x.requiresGrad {
			g := x.ensureGrad()
			for i, v := range out.Grad {
				g[i] += v
			}
		}
		if table.requiresGrad {
			g := table.ensureGrad()
			for r, src := range rows {
				or := out.Grad[r*c : (r+1)*c]
				gr := g[src*c : (src+1)*c]
				for j, v := range or {
					gr[j] += v
				}
			}
		}
	}, x, table)
	for r, src := range rows {
		xr := x.Data[r*c : (r+1)*c]
		tr := table.Data[src*c : (src+1)*c]
		or := out.Data[r*c : (r+1)*c]
		for j := range or {
			or[j] = xr[j] + tr[j]
		}
	}
	return out
}

// ConcatRows concatenates tensors with equal column counts along rows — the
// reassembly primitive of segment-wise packed attention.
func ConcatRows(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: ConcatRows of nothing")
	}
	cols := ts[0].Cols
	total := 0
	for _, t := range ts {
		if t.Cols != cols {
			panic("tensor: ConcatRows column mismatch")
		}
		total += t.Rows
	}
	parents := append([]*Tensor(nil), ts...)
	out := child(total, cols, "concat_rows", func(out *Tensor) {
		off := 0
		for _, t := range parents {
			n := t.Rows * cols
			if t.requiresGrad {
				g := t.ensureGrad()
				src := out.Grad[off : off+n]
				for i, v := range src {
					g[i] += v
				}
			}
			off += n
		}
	}, parents...)
	off := 0
	for _, t := range ts {
		n := copy(out.Data[off:], t.Data)
		off += n
	}
	return out
}

// Mean returns the scalar mean of all elements.
func Mean(a *Tensor) *Tensor {
	n := float64(len(a.Data))
	out := child(1, 1, "mean", func(out *Tensor) {
		if a.requiresGrad {
			g := a.ensureGrad()
			v := out.Grad[0] / n
			for i := range g {
				g[i] += v
			}
		}
	}, a)
	var s float64
	for _, v := range a.Data {
		s += v
	}
	out.Data[0] = s / n
	return out
}

// Sum returns the scalar sum of all elements.
func Sum(a *Tensor) *Tensor {
	out := child(1, 1, "sum", func(out *Tensor) {
		if a.requiresGrad {
			g := a.ensureGrad()
			v := out.Grad[0]
			for i := range g {
				g[i] += v
			}
		}
	}, a)
	var s float64
	for _, v := range a.Data {
		s += v
	}
	out.Data[0] = s
	return out
}

// unaryOp builds an elementwise op with derivative df(x, y) where y=f(x).
func unaryOp(a *Tensor, name string, f func(float64) float64, df func(x, y float64) float64) *Tensor {
	out := child(a.Rows, a.Cols, name, func(out *Tensor) {
		if a.requiresGrad {
			g := a.ensureGrad()
			for i, v := range out.Grad {
				g[i] += v * df(a.Data[i], out.Data[i])
			}
		}
	}, a)
	for i, v := range a.Data {
		out.Data[i] = f(v)
	}
	return out
}

// ReLU applies max(0, x) elementwise.
func ReLU(a *Tensor) *Tensor {
	return unaryOp(a, "relu",
		func(x float64) float64 {
			if x > 0 {
				return x
			}
			return 0
		},
		func(x, _ float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		})
}

// GELU applies the tanh-approximated Gaussian error linear unit.
func GELU(a *Tensor) *Tensor {
	const c = 0.7978845608028654 // sqrt(2/π)
	return unaryOp(a, "gelu",
		func(x float64) float64 {
			return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
		},
		func(x, _ float64) float64 {
			t := math.Tanh(c * (x + 0.044715*x*x*x))
			dt := (1 - t*t) * c * (1 + 3*0.044715*x*x)
			return 0.5*(1+t) + 0.5*x*dt
		})
}

// Tanh applies tanh elementwise.
func Tanh(a *Tensor) *Tensor {
	return unaryOp(a, "tanh", math.Tanh, func(_, y float64) float64 { return 1 - y*y })
}

// Sigmoid applies the logistic function elementwise.
func Sigmoid(a *Tensor) *Tensor {
	return unaryOp(a, "sigmoid",
		func(x float64) float64 { return 1 / (1 + math.Exp(-x)) },
		func(_, y float64) float64 { return y * (1 - y) })
}

// Exp applies e^x elementwise.
func Exp(a *Tensor) *Tensor {
	return unaryOp(a, "exp", math.Exp, func(_, y float64) float64 { return y })
}

// Clamp limits values to [lo, hi]; gradients pass only inside the range.
func Clamp(a *Tensor, lo, hi float64) *Tensor {
	return unaryOp(a, "clamp",
		func(x float64) float64 { return math.Min(math.Max(x, lo), hi) },
		func(x, _ float64) float64 {
			if x < lo || x > hi {
				return 0
			}
			return 1
		})
}
