package scenario

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Budget kinds, the typed reason a run exceeded its resource envelope.
const (
	// BudgetSpillBytes: the run's live spill-disk footprint (sorted run
	// files plus merge outputs) crossed MaxSpillBytes.
	BudgetSpillBytes = "spill_bytes"
	// BudgetEvents: the pacer released MaxEvents events.
	BudgetEvents = "events"
	// BudgetWallClock: a wall-clock deadline the caller armed on the run's
	// context expired (see WrapWallClock).
	BudgetWallClock = "wall_clock"
)

// Budget bounds one run's resource consumption. The zero value is
// unlimited. Budgets make an over-consuming run fail itself — with a
// typed *BudgetExceededError naming what ran out — instead of exhausting
// the disk the whole process shares.
//
// Enforcement points: MaxSpillBytes is checked before every spill and
// merge write inside OpenContext (generation phase); MaxEvents is checked
// by the Pacer before each release. A wall-clock bound is a context
// deadline, owned by whoever arms it: to the pipeline and the Pacer its
// expiry is a plain stop, and the owner types it with WrapWallClock.
type Budget struct {
	// MaxSpillBytes caps the run's live spill-disk footprint in bytes
	// (0 = unlimited). The cap covers the peak: a merge pass's output is
	// charged before its inputs are released.
	MaxSpillBytes int64
	// MaxEvents caps how many events the Pacer releases (0 = unlimited).
	MaxEvents int64
	// SpillUsed, when non-nil, also receives the run's spill accounting —
	// a shared gauge of live spill bytes across runs (the daemon's
	// admission controller reads it for its -max-spill-bytes budget).
	SpillUsed *atomic.Int64
}

// BudgetExceededError is the typed failure a run reports when it runs
// over one of its Budget bounds. Kind is one of the Budget* constants;
// Limit and Used are in the kind's unit (bytes, events, or nanoseconds).
type BudgetExceededError struct {
	Kind  string
	Limit int64
	Used  int64
	cause error
}

func (e *BudgetExceededError) Error() string {
	switch e.Kind {
	case BudgetWallClock:
		return fmt.Sprintf("scenario: budget exceeded: wall clock ran %s against a %s deadline",
			time.Duration(e.Used), time.Duration(e.Limit))
	default:
		return fmt.Sprintf("scenario: budget exceeded: %s used %d of %d", e.Kind, e.Used, e.Limit)
	}
}

// Unwrap exposes the underlying cause (context.DeadlineExceeded for
// wall-clock breaches), so errors.Is keeps working across the typed wrap.
func (e *BudgetExceededError) Unwrap() error { return e.cause }

// WrapWallClock types a context-deadline expiry as a wall-clock budget
// breach — for the caller (the daemon) that armed the deadline and sees
// the raw context error, or a stopped Pacer, when it expires.
func WrapWallClock(limit, elapsed time.Duration, cause error) *BudgetExceededError {
	return &BudgetExceededError{Kind: BudgetWallClock, Limit: int64(limit), Used: int64(elapsed), cause: cause}
}

// AsBudgetExceeded unwraps err to a *BudgetExceededError if one is in its
// chain.
func AsBudgetExceeded(err error) (*BudgetExceededError, bool) {
	var be *BudgetExceededError
	if errors.As(err, &be) {
		return be, true
	}
	return nil, false
}

// spillAccount tracks one run's live spill bytes against its quota and,
// when configured, a shared cross-run gauge. All methods are nil-safe so
// unbudgeted runs pay nothing.
type spillAccount struct {
	max    int64
	shared *atomic.Int64
	local  atomic.Int64
}

// newSpillAccount returns nil when the budget needs no spill tracking.
func newSpillAccount(b Budget) *spillAccount {
	if b.MaxSpillBytes <= 0 && b.SpillUsed == nil {
		return nil
	}
	return &spillAccount{max: b.MaxSpillBytes, shared: b.SpillUsed}
}

// add charges n bytes about to be written and reports a quota breach.
// The charge stands even on error — the caller aborts the run and the
// whole account is released once the spill directory is removed.
func (a *spillAccount) add(n int64) error {
	if a == nil || n <= 0 {
		return nil
	}
	used := a.local.Add(n)
	if a.shared != nil {
		a.shared.Add(n)
	}
	if a.max > 0 && used > a.max {
		return &BudgetExceededError{Kind: BudgetSpillBytes, Limit: a.max, Used: used}
	}
	return nil
}

// sub releases n bytes whose backing file was deleted.
func (a *spillAccount) sub(n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.local.Add(-n)
	if a.shared != nil {
		a.shared.Add(-n)
	}
}

// release drops whatever the account still holds — called when the spill
// directory is removed wholesale (Stream.Close, or an aborted open).
func (a *spillAccount) release() {
	if a == nil {
		return
	}
	rem := a.local.Swap(0)
	if rem != 0 && a.shared != nil {
		a.shared.Add(-rem)
	}
}
