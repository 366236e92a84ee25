package tensor

import (
	"fmt"
	"sync"
)

// Arena is a bump allocator for the float64 buffers that back one autograd
// tape: child tensor values, their gradients and per-op scratch (LayerNorm's
// row statistics, Dropout masks, CrossEntropy's probabilities). A training
// step builds the same tape shape over and over; drawing those buffers from
// an arena and calling Reset after each optimizer step reuses the same slabs
// every step instead of re-making them, which removes the allocation/GC cost
// from the training hot path.
//
// The arena belongs to the tape, not to the process. A tensor remembers the
// arena its values came from, and every op result (and its scratch) takes
// the arena of its first parent that has one (see child); a tape whose inputs are all heap
// tensors — parameters, New, FromSlice — stays on the heap. So a trainer
// puts a step's inputs in its arena with New, and whatever the step derives
// from them dies at the next Reset, while work on any other goroutine is
// untouched by it.
//
// An arena hands out zeroed memory (Alloc's contract) and never frees slabs;
// Reset rewinds the bump pointer so the next step reuses them. Reset must
// only be called when no live tensor still references the arena's memory.
// Alloc and Reset are safe for concurrent use. A nil *Arena is the heap:
// New, Alloc and AllocRaw on it return fresh heap memory.
type Arena struct {
	mu    sync.Mutex
	slabs [][]float64
	slab  int // index of the slab currently being bumped
	off   int // offset into slabs[slab]

	slabFloats int
	peak       int // high-water mark of floats in use, across Resets
}

// arenaSlabFloats is the default slab size (floats): 512 KiB per slab keeps
// slab count low for CPU-sized models while staying cache-polite.
const arenaSlabFloats = 1 << 16

// NewArena returns an empty arena; slabs are allocated on demand.
func NewArena() *Arena {
	return &Arena{slabFloats: arenaSlabFloats}
}

// New returns a zero-valued rows×cols tensor whose buffer comes from a (the
// heap when a is nil). Op results derived from it inherit a, so it and they
// must not be used after a's next Reset.
func (a *Arena) New(rows, cols int) *Tensor {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %d×%d", rows, cols))
	}
	return &Tensor{Data: a.Alloc(rows * cols), Rows: rows, Cols: cols, arena: a}
}

// Alloc returns a zeroed length-n slice carved from the arena.
func (a *Arena) Alloc(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	out := a.AllocRaw(n)
	clear(out)
	return out
}

// AllocRaw is Alloc without the zeroing pass: the returned slice holds
// whatever the recycled slab last held. Callers must overwrite every
// element (the op layer uses it for outputs that are fully written by the
// forward pass; gradients always go through the zeroing Alloc). On a nil
// arena it is a zeroed heap slice.
func (a *Arena) AllocRaw(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	if n == 0 {
		return nil
	}
	a.mu.Lock()
	for {
		if a.slab < len(a.slabs) {
			s := a.slabs[a.slab]
			if a.off+n <= len(s) {
				out := s[a.off : a.off+n : a.off+n]
				a.off += n
				a.mu.Unlock()
				return out
			}
			// Current slab exhausted for this request; move on. The stranded
			// tail is reclaimed at the next Reset.
			a.slab++
			a.off = 0
			continue
		}
		size := a.slabFloats
		if n > size {
			size = n // oversized requests get a dedicated slab
		}
		a.slabs = append(a.slabs, make([]float64, size))
	}
}

// Reset rewinds the arena so subsequent Allocs reuse the existing slabs.
// Every slice previously returned by Alloc becomes invalid.
func (a *Arena) Reset() {
	a.mu.Lock()
	if used := a.inUseLocked(); used > a.peak {
		a.peak = used
	}
	a.slab = 0
	a.off = 0
	a.mu.Unlock()
}

func (a *Arena) inUseLocked() int {
	used := a.off
	for i := 0; i < a.slab && i < len(a.slabs); i++ {
		used += len(a.slabs[i])
	}
	return used
}

// Footprint returns the total floats held by the arena's slabs.
func (a *Arena) Footprint() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	total := 0
	for _, s := range a.slabs {
		total += len(s)
	}
	return total
}

// Peak returns the high-water mark of floats in use observed at Reset time.
func (a *Arena) Peak() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if used := a.inUseLocked(); used > a.peak {
		return used
	}
	return a.peak
}
