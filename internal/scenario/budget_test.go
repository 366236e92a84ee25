package scenario

import (
	"context"
	"errors"
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

// TestPacerWallBudget pins deadline classification: with MaxWall set, a
// context-deadline expiry surfaces as a wall-clock budget breach that
// still unwraps to context.DeadlineExceeded; without MaxWall the same
// expiry stays a clean stop.
func TestPacerWallBudget(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(30*time.Millisecond))
	defer cancel()
	// Slow source: each release waits 5ms of wall, so the deadline lands
	// mid-stream.
	p := NewPacer(ctx, evenlySpaced(1000, 0.005), 1)
	p.SetBudget(Budget{MaxWall: 30 * time.Millisecond})
	for {
		if _, ok := p.Next(); !ok {
			break
		}
	}
	be, ok := AsBudgetExceeded(p.Err())
	if !ok || be.Kind != BudgetWallClock {
		t.Fatalf("Err() = %v, want BudgetExceeded/wall_clock", p.Err())
	}
	if !errors.Is(p.Err(), context.DeadlineExceeded) {
		t.Fatalf("wall-clock breach %v must unwrap to context.DeadlineExceeded", p.Err())
	}
	if p.Stopped() {
		t.Fatal("a wall-clock breach must not report Stopped")
	}

	// Same expiry without a wall budget: clean operator-style stop.
	ctx2, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(20*time.Millisecond))
	defer cancel2()
	p2 := NewPacer(ctx2, evenlySpaced(1000, 0.005), 1)
	for {
		if _, ok := p2.Next(); !ok {
			break
		}
	}
	if err := p2.Err(); err != nil {
		t.Fatalf("unbudgeted deadline expiry must stay a clean stop, got %v", err)
	}
	if !p2.Stopped() {
		t.Fatal("unbudgeted deadline expiry must report Stopped")
	}
}

// laggingSource delays each Next so the pacer falls behind its schedule.
type laggingSource struct {
	sliceSource
	delay time.Duration
	slowN int // events that carry the delay; the rest are immediate
}

func (s *laggingSource) Next() (Event, bool) {
	if s.i < s.slowN {
		time.Sleep(s.delay)
	}
	return s.sliceSource.Next()
}

// TestPacerShedAfterLag pins load shedding: a source that outruns its lag
// bound flips the pacer into shed mode (counted releases, no waits), no
// events are dropped, and the stream still ends cleanly.
func TestPacerShedAfterLag(t *testing.T) {
	// 400 events at the same trace instant: the schedule is "all at t0",
	// so every wall-millisecond of source delay is pure lag.
	src := &laggingSource{delay: time.Millisecond, slowN: 40}
	for i := 0; i < 400; i++ {
		src.evs = append(src.evs, Event{Time: 0, UE: 1, Seq: uint32(i)})
	}
	p := NewPacer(context.Background(), src, 1)
	p.SetShedAfterLag(10 * time.Millisecond)
	n := 0
	for {
		if _, ok := p.Next(); !ok {
			break
		}
		n++
	}
	if n != 400 {
		t.Fatalf("released %d events, want 400 (shedding must never drop events)", n)
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if p.Shed() == 0 {
		t.Fatal("pacer never shed despite lag far past the bound")
	}
	if p.Shed() >= 400 {
		t.Fatalf("shed %d of 400 releases; the pre-lag prefix must be paced", p.Shed())
	}
}

// TestPacerResumeShed pins that a resumed pacer's shed counter continues
// from the journaled base instead of restarting at zero.
func TestPacerResumeShed(t *testing.T) {
	p := NewPacer(context.Background(), evenlySpaced(3, 0), 0)
	p.ResumeShed(17)
	for {
		if _, ok := p.Next(); !ok {
			break
		}
	}
	if got := p.Shed(); got != 17 {
		t.Fatalf("Shed() = %d after resume seed with no new shedding, want 17", got)
	}
}
