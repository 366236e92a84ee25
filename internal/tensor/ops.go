package tensor

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Softmax applies a numerically stable softmax over each row.
func Softmax(a *Tensor) *Tensor {
	out := child(a.Rows, a.Cols, "softmax", func(out *Tensor) {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		ParallelFor(a.Rows, 4*a.Cols, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				y := out.Data[r*a.Cols : (r+1)*a.Cols]
				dy := out.Grad[r*a.Cols : (r+1)*a.Cols]
				var dot float64
				for j := range y {
					dot += y[j] * dy[j]
				}
				gr := g[r*a.Cols : (r+1)*a.Cols]
				for j := range y {
					gr[j] += y[j] * (dy[j] - dot)
				}
			}
		})
	}, a)
	// Rows are independent, so sharding preserves bit-identical output; exp
	// dominates the per-element cost, hence the inflated work estimate.
	ParallelFor(a.Rows, 8*a.Cols, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			x := a.Data[r*a.Cols : (r+1)*a.Cols]
			y := out.Data[r*a.Cols : (r+1)*a.Cols]
			softmaxRow(x, y)
		}
	})
	return out
}

func softmaxRow(x, y []float64) {
	maxv := math.Inf(-1)
	for _, v := range x {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for j, v := range x {
		e := math.Exp(v - maxv)
		y[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range y {
		y[j] *= inv
	}
}

// CausalSoftmax applies a row-wise softmax to a square score matrix with a
// causal mask: entry (i, j) participates only when j ≤ i. Masked entries of
// the output are exactly zero. This is the attention-weight op of the
// decoder-only transformer.
func CausalSoftmax(a *Tensor) *Tensor {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("tensor: CausalSoftmax requires square input, got %d×%d", a.Rows, a.Cols))
	}
	n := a.Rows
	out := child(n, n, "causal_softmax", func(out *Tensor) {
		if !a.requiresGrad {
			return
		}
		g := a.ensureGrad()
		ParallelFor(n, 2*n, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				y := out.Data[r*n : r*n+r+1]
				dy := out.Grad[r*n : r*n+r+1]
				var dot float64
				for j := range y {
					dot += y[j] * dy[j]
				}
				gr := g[r*n : r*n+r+1]
				for j := range y {
					gr[j] += y[j] * (dy[j] - dot)
				}
			}
		})
	}, a)
	clear(out.Data) // the masked triangle (j > r) must read as exact zeros
	ParallelFor(n, 4*n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			x := a.Data[r*n : r*n+r+1]
			y := out.Data[r*n : r*n+r+1]
			softmaxRow(x, y)
			// entries j > r stay zero
		}
	})
	return out
}

// LayerNorm normalizes each row to zero mean and unit variance, then applies
// the learned per-column gain and bias (both 1×cols tensors).
func LayerNorm(a, gain, bias *Tensor, eps float64) *Tensor {
	if gain.Rows != 1 || gain.Cols != a.Cols || bias.Rows != 1 || bias.Cols != a.Cols {
		panic("tensor: LayerNorm gain/bias must be 1×cols")
	}
	n := float64(a.Cols)
	// Cache per-row inverse std and normalized values for the backward pass
	// (the mean itself is not needed again). This scratch lives as long as
	// the tape, so it draws from a's arena — raw, since the forward pass
	// fully overwrites both views — instead of being re-made every forward.
	scratch := a.arena.AllocRaw(a.Rows + len(a.Data))
	istd := scratch[:a.Rows]
	xhat := scratch[a.Rows:]

	out := child(a.Rows, a.Cols, "layernorm", func(out *Tensor) {
		// Gain/bias gradients accumulate across rows, so they stay serial
		// (in row order, keeping the float result identical); the input
		// gradient is row-independent and shards across the pool.
		if gain.requiresGrad || bias.requiresGrad {
			gg := gain.ensureGrad()
			gb := bias.ensureGrad()
			for r := 0; r < a.Rows; r++ {
				dy := out.Grad[r*a.Cols : (r+1)*a.Cols]
				xh := xhat[r*a.Cols : (r+1)*a.Cols]
				if gain.requiresGrad {
					for j := range dy {
						gg[j] += dy[j] * xh[j]
					}
				}
				if bias.requiresGrad {
					for j := range dy {
						gb[j] += dy[j]
					}
				}
			}
		}
		if a.requiresGrad {
			ga := a.ensureGrad()
			ParallelFor(a.Rows, 6*a.Cols, func(lo, hi int) {
				for r := lo; r < hi; r++ {
					dy := out.Grad[r*a.Cols : (r+1)*a.Cols]
					xh := xhat[r*a.Cols : (r+1)*a.Cols]
					// dxhat = dy * gain
					var sumDx, sumDxXh float64
					for j := range dy {
						dx := dy[j] * gain.Data[j]
						sumDx += dx
						sumDxXh += dx * xh[j]
					}
					gr := ga[r*a.Cols : (r+1)*a.Cols]
					for j := range dy {
						dx := dy[j] * gain.Data[j]
						gr[j] += istd[r] * (dx - sumDx/n - xh[j]*sumDxXh/n)
					}
				}
			})
		}
	}, a, gain, bias)

	ParallelFor(a.Rows, 5*a.Cols, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			x := a.Data[r*a.Cols : (r+1)*a.Cols]
			var m float64
			for _, v := range x {
				m += v
			}
			m /= n
			var v float64
			for _, xv := range x {
				d := xv - m
				v += d * d
			}
			v /= n
			is := 1 / math.Sqrt(v+eps)
			istd[r] = is
			y := out.Data[r*a.Cols : (r+1)*a.Cols]
			xh := xhat[r*a.Cols : (r+1)*a.Cols]
			for j, xv := range x {
				h := (xv - m) * is
				xh[j] = h
				y[j] = h*gain.Data[j] + bias.Data[j]
			}
		}
	})
	return out
}

// Dropout zeroes each element with probability p during training, scaling
// survivors by 1/(1-p). With p ≤ 0 or a nil rng it is the identity.
func Dropout(a *Tensor, p float64, rng *rand.Rand) *Tensor {
	if p <= 0 || rng == nil {
		return a
	}
	if p >= 1 {
		panic("tensor: Dropout p must be < 1")
	}
	// The mask is consulted by the backward closure, so it is tape-lived
	// scratch, drawn from a's arena.
	mask := a.arena.Alloc(len(a.Data))
	scale := 1 / (1 - p)
	for i := range mask {
		if rng.Float64() >= p {
			mask[i] = scale
		}
	}
	out := child(a.Rows, a.Cols, "dropout", func(out *Tensor) {
		if a.requiresGrad {
			g := a.ensureGrad()
			for i, v := range out.Grad {
				g[i] += v * mask[i]
			}
		}
	}, a)
	for i, v := range a.Data {
		out.Data[i] = v * mask[i]
	}
	return out
}

// MeanRows returns the column means of a as a 1×m row vector. The 1/n
// reciprocal is hoisted out of the element loops (one division instead of
// one per element, forward and backward).
func MeanRows(a *Tensor) *Tensor {
	inv := 1 / float64(a.Rows)
	out := child(1, a.Cols, "mean_rows", func(out *Tensor) {
		if a.requiresGrad {
			g := a.ensureGrad()
			for r := 0; r < a.Rows; r++ {
				gr := g[r*a.Cols : (r+1)*a.Cols]
				for j, v := range out.Grad {
					gr[j] += v * inv
				}
			}
		}
	}, a)
	clear(out.Data) // accumulated below, so it must start at zero
	for r := 0; r < a.Rows; r++ {
		row := a.Data[r*a.Cols : (r+1)*a.Cols]
		for j, v := range row {
			out.Data[j] += v * inv
		}
	}
	return out
}

// BroadcastScalar replicates a 1×1 scalar into an n×1 column; gradients sum
// back into the scalar. Combined with MeanRows/Mean it builds minibatch
// statistics (e.g. the minibatch-variance anti-mode-collapse feature of the
// GAN baseline's discriminator).
func BroadcastScalar(s *Tensor, rows int) *Tensor {
	if s.Rows != 1 || s.Cols != 1 {
		panic(fmt.Sprintf("tensor: BroadcastScalar needs 1×1 input, got %d×%d", s.Rows, s.Cols))
	}
	out := child(rows, 1, "bcast_scalar", func(out *Tensor) {
		if s.requiresGrad {
			g := s.ensureGrad()
			for _, v := range out.Grad {
				g[0] += v
			}
		}
	}, s)
	for i := range out.Data {
		out.Data[i] = s.Data[0]
	}
	return out
}

// ScaleRows multiplies every row r of a (n×m) by col[r] (col is n×1) — the
// per-row gating primitive behind DoppelGANger-style generation-flag
// masking in the GAN baseline.
func ScaleRows(a, col *Tensor) *Tensor {
	if col.Cols != 1 || col.Rows != a.Rows {
		panic(fmt.Sprintf("tensor: ScaleRows col must be %d×1, got %d×%d", a.Rows, col.Rows, col.Cols))
	}
	out := child(a.Rows, a.Cols, "scale_rows", func(out *Tensor) {
		if a.requiresGrad {
			g := a.ensureGrad()
			for r := 0; r < a.Rows; r++ {
				cv := col.Data[r]
				row := out.Grad[r*a.Cols : (r+1)*a.Cols]
				gr := g[r*a.Cols : (r+1)*a.Cols]
				for j, v := range row {
					gr[j] += v * cv
				}
			}
		}
		if col.requiresGrad {
			g := col.ensureGrad()
			for r := 0; r < a.Rows; r++ {
				row := out.Grad[r*a.Cols : (r+1)*a.Cols]
				ar := a.Data[r*a.Cols : (r+1)*a.Cols]
				var s float64
				for j, v := range row {
					s += v * ar[j]
				}
				g[r] += s
			}
		}
	}, a, col)
	for r := 0; r < a.Rows; r++ {
		cv := col.Data[r]
		ar := a.Data[r*a.Cols : (r+1)*a.Cols]
		or := out.Data[r*a.Cols : (r+1)*a.Cols]
		for j, v := range ar {
			or[j] = v * cv
		}
	}
	return out
}

// CrossEntropy computes the mean negative log-likelihood of integer targets
// under row-wise softmax of the logits. Rows with target < 0 are ignored
// (masked), mirroring padding tokens. Returns a scalar.
func CrossEntropy(logits *Tensor, targets []int) *Tensor {
	if len(targets) != logits.Rows {
		panic(fmt.Sprintf("tensor: CrossEntropy got %d targets for %d rows", len(targets), logits.Rows))
	}
	c := logits.Cols
	// probs backs both the forward loss and the backward gradient, so it is
	// tape-lived scratch, drawn from the logits' arena.
	probs := logits.arena.Alloc(len(logits.Data))
	active := 0
	for _, t := range targets {
		if t >= 0 {
			active++
		}
	}
	if active == 0 {
		active = 1
	}
	for _, t := range targets {
		if t >= c {
			panic(fmt.Sprintf("tensor: CrossEntropy target %d out of range %d", t, c))
		}
	}
	out := child(1, 1, "cross_entropy", func(out *Tensor) {
		if !logits.requiresGrad {
			return
		}
		g := logits.ensureGrad()
		scale := out.Grad[0] / float64(active)
		ParallelFor(logits.Rows, 2*c, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				t := targets[r]
				if t < 0 {
					continue
				}
				p := probs[r*c : (r+1)*c]
				gr := g[r*c : (r+1)*c]
				for j := range p {
					gr[j] += scale * p[j]
				}
				gr[t] -= scale
			}
		})
	}, logits)
	// Per-row softmax and loss terms shard across the pool; the reduction
	// over rows stays a serial in-order sum so the result is bit-identical
	// to the fully serial path at any parallelism degree.
	rowLoss, handle := getBuf(logits.Rows)
	ParallelFor(logits.Rows, 8*c, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			x := logits.Data[r*c : (r+1)*c]
			p := probs[r*c : (r+1)*c]
			softmaxRow(x, p)
			if t := targets[r]; t >= 0 {
				rowLoss[r] = -math.Log(math.Max(p[t], 1e-300))
			}
		}
	})
	var loss float64
	for r, t := range targets {
		if t >= 0 {
			loss += rowLoss[r]
		}
	}
	putBuf(handle)
	out.Data[0] = loss / float64(active)
	return out
}

// GaussianNLL computes the mean Gaussian negative log-likelihood of targets
// under per-row (mean, logStd) predictions — the loss of CPT-GPT's numeric
// interarrival head (Design 2). mean and logStd must both be n×1; rows with
// mask[r] == false are ignored. Returns a scalar.
func GaussianNLL(mean, logStd *Tensor, targets []float64, mask []bool) *Tensor {
	n := mean.Rows
	if mean.Cols != 1 || logStd.Cols != 1 || logStd.Rows != n || len(targets) != n || len(mask) != n {
		panic("tensor: GaussianNLL shape mismatch")
	}
	active := 0
	for _, m := range mask {
		if m {
			active++
		}
	}
	if active == 0 {
		active = 1
	}
	const halfLog2Pi = 0.9189385332046727
	out := child(1, 1, "gaussian_nll", func(out *Tensor) {
		scale := out.Grad[0] / float64(active)
		for r := 0; r < n; r++ {
			if !mask[r] {
				continue
			}
			ls := logStd.Data[r]
			sigma2 := math.Exp(2 * ls)
			diff := mean.Data[r] - targets[r]
			if mean.requiresGrad {
				mean.ensureGrad()[r] += scale * diff / sigma2
			}
			if logStd.requiresGrad {
				logStd.ensureGrad()[r] += scale * (1 - diff*diff/sigma2)
			}
		}
	}, mean, logStd)
	var loss float64
	for r := 0; r < n; r++ {
		if !mask[r] {
			continue
		}
		ls := logStd.Data[r]
		sigma2 := math.Exp(2 * ls)
		diff := mean.Data[r] - targets[r]
		loss += halfLog2Pi + ls + diff*diff/(2*sigma2)
	}
	out.Data[0] = loss / float64(active)
	return out
}

// MSE computes the mean squared error between per-row scalar predictions
// (n×1) and targets, honoring the mask. Used by the no-distribution-head
// ablation (Table 8) and by regression baselines.
func MSE(pred *Tensor, targets []float64, mask []bool) *Tensor {
	n := pred.Rows
	if pred.Cols != 1 || len(targets) != n || len(mask) != n {
		panic("tensor: MSE shape mismatch")
	}
	active := 0
	for _, m := range mask {
		if m {
			active++
		}
	}
	if active == 0 {
		active = 1
	}
	out := child(1, 1, "mse", func(out *Tensor) {
		if !pred.requiresGrad {
			return
		}
		g := pred.ensureGrad()
		scale := out.Grad[0] * 2 / float64(active)
		for r := 0; r < n; r++ {
			if mask[r] {
				g[r] += scale * (pred.Data[r] - targets[r])
			}
		}
	}, pred)
	var loss float64
	for r := 0; r < n; r++ {
		if mask[r] {
			d := pred.Data[r] - targets[r]
			loss += d * d
		}
	}
	out.Data[0] = loss / float64(active)
	return out
}

// BCEWithLogits computes the mean binary cross-entropy of logits against
// targets in {0,1} — the discriminator/generator loss of the GAN baseline.
// logits must be n×1.
func BCEWithLogits(logits *Tensor, targets []float64) *Tensor {
	n := logits.Rows
	if logits.Cols != 1 || len(targets) != n {
		panic("tensor: BCEWithLogits shape mismatch")
	}
	out := child(1, 1, "bce_logits", func(out *Tensor) {
		if !logits.requiresGrad {
			return
		}
		g := logits.ensureGrad()
		scale := out.Grad[0] / float64(n)
		for r := 0; r < n; r++ {
			s := 1 / (1 + math.Exp(-logits.Data[r]))
			g[r] += scale * (s - targets[r])
		}
	}, logits)
	var loss float64
	for r := 0; r < n; r++ {
		x := logits.Data[r]
		// Numerically stable: max(x,0) − x·t + log(1+e^{−|x|})
		loss += math.Max(x, 0) - x*targets[r] + math.Log1p(math.Exp(-math.Abs(x)))
	}
	out.Data[0] = loss / float64(n)
	return out
}

// AddScalars sums 1×1 tensors with the given weights into one scalar — the
// weighted multi-field loss combiner of CPT-GPT (§5.3 loss-weight study).
func AddScalars(weights []float64, losses ...*Tensor) *Tensor {
	if len(weights) != len(losses) || len(losses) == 0 {
		panic("tensor: AddScalars needs matching non-empty weights and losses")
	}
	for _, l := range losses {
		if l.Rows != 1 || l.Cols != 1 {
			panic("tensor: AddScalars operand is not scalar")
		}
	}
	parents := append([]*Tensor(nil), losses...)
	ws := append([]float64(nil), weights...)
	out := child(1, 1, "add_scalars", func(out *Tensor) {
		for i, p := range parents {
			if p.requiresGrad {
				p.ensureGrad()[0] += out.Grad[0] * ws[i]
			}
		}
	}, parents...)
	var s float64
	for i, l := range losses {
		s += ws[i] * l.Data[0]
	}
	out.Data[0] = s
	return out
}
