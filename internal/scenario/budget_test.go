package scenario

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// TestSpillBudgetExceeded pins that a run whose spill footprint crosses
// MaxSpillBytes fails with the typed error, and that the shared gauge is
// fully released afterwards (no leaked accounting).
func TestSpillBudgetExceeded(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	var shared atomic.Int64
	_, err = spec.Open(RunOpts{
		UEs: 2000, TempDir: t.TempDir(),
		Budget: Budget{MaxSpillBytes: 4 * 1024, SpillUsed: &shared},
	})
	if err == nil {
		t.Fatal("open succeeded under a 4KiB spill budget")
	}
	be, ok := AsBudgetExceeded(err)
	if !ok {
		t.Fatalf("error %v is not a BudgetExceededError", err)
	}
	if be.Kind != BudgetSpillBytes {
		t.Fatalf("kind = %q, want %q", be.Kind, BudgetSpillBytes)
	}
	if be.Limit != 4*1024 || be.Used <= be.Limit {
		t.Fatalf("limit/used = %d/%d, want used > limit = 4096", be.Limit, be.Used)
	}
	if got := shared.Load(); got != 0 {
		t.Fatalf("shared spill gauge holds %d bytes after failed open, want 0", got)
	}
}

// TestSpillBudgetExceededByReduction pins the charge a fan-in reduction pass
// makes for its own output: a quota that exactly fits the spilled chunks
// passes a run that needs no reduction, and fails — typed, by the size of
// the first pass's inputs, ledger drained — the same run at a fan-in that
// does.
func TestSpillBudgetExceededByReduction(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	var shared atomic.Int64
	open := func(maxSpill int64, fanIn int) (*Stream, error) {
		return spec.Open(RunOpts{
			UEs: 400, BatchSize: 50, MaxFanIn: fanIn, TempDir: t.TempDir(),
			Budget: Budget{MaxSpillBytes: maxSpill, SpillUsed: &shared},
		})
	}
	st, err := open(0, DefaultMaxFanIn)
	if err != nil {
		t.Fatal(err)
	}
	spilled := shared.Load()
	st.Close()

	if st, err = open(spilled, DefaultMaxFanIn); err != nil {
		t.Fatalf("a quota of exactly the spilled %d bytes failed without a reduction pass: %v", spilled, err)
	}
	st.Close()

	_, err = open(spilled, 2)
	be, ok := AsBudgetExceeded(err)
	if !ok || be.Kind != BudgetSpillBytes {
		t.Fatalf("open at fan-in 2 under a %d-byte quota: err = %v, want BudgetExceeded/spill_bytes", spilled, err)
	}
	if be.Limit != spilled || be.Used <= spilled || be.Used >= 2*spilled {
		t.Fatalf("limit/used = %d/%d, want the %d spilled bytes plus one pass's inputs", be.Limit, be.Used, spilled)
	}
	if got := shared.Load(); got != 0 {
		t.Fatalf("shared spill gauge holds %d bytes after the failed reduction, want 0", got)
	}
}

// TestSpillAccountingLifecycle pins that the shared gauge tracks live
// spill bytes during a successful run and drains to zero on Close.
func TestSpillAccountingLifecycle(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	var shared atomic.Int64
	st, err := spec.Open(RunOpts{
		UEs: 500, TempDir: t.TempDir(),
		Budget: Budget{SpillUsed: &shared},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := shared.Load(); got <= 0 {
		t.Fatalf("shared spill gauge = %d with an open stream, want > 0", got)
	}
	n := 0
	for {
		if _, ok := st.Next(); !ok {
			break
		}
		n++
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if got := shared.Load(); got != 0 {
		t.Fatalf("shared spill gauge holds %d bytes after Close, want 0", got)
	}
	if n == 0 {
		t.Fatal("stream yielded no events")
	}
}

// TestPacerEventBudget pins the event-count ceiling: the pacer ends the
// stream after exactly MaxEvents releases with the typed error, and the
// end is not reported as an operator stop.
func TestPacerEventBudget(t *testing.T) {
	p := NewPacer(context.Background(), evenlySpaced(100, 1), 0)
	p.SetBudget(Budget{MaxEvents: 7})
	n := 0
	for {
		if _, ok := p.Next(); !ok {
			break
		}
		n++
	}
	if n != 7 || p.Events() != 7 {
		t.Fatalf("released %d (counter %d), want 7", n, p.Events())
	}
	be, ok := AsBudgetExceeded(p.Err())
	if !ok || be.Kind != BudgetEvents {
		t.Fatalf("Err() = %v, want BudgetExceeded/events", p.Err())
	}
	if p.Stopped() {
		t.Fatal("a budget breach must not report Stopped")
	}
}

// TestPacerWallBudget pins that a context deadline is a clean stop to the
// pacer, whatever the budget: typing the expiry as a wall-clock breach is
// the job of whoever armed the deadline (the daemon).
func TestPacerWallBudget(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(20*time.Millisecond))
	defer cancel()
	// Slow source: each release waits 5ms of wall, so the deadline lands
	// mid-stream.
	p := NewPacer(ctx, evenlySpaced(1000, 0.005), 1)
	p.SetBudget(Budget{MaxEvents: 900})
	for {
		if _, ok := p.Next(); !ok {
			break
		}
	}
	if err := p.Err(); err != nil {
		t.Fatalf("deadline expiry must stay a clean stop, got %v", err)
	}
	if !p.Stopped() {
		t.Fatal("deadline expiry must report Stopped")
	}
}
