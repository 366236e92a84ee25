package served

import (
	"bytes"
	"context"
	"io"
	"sync/atomic"
	"time"

	"cptgpt/internal/scenario"
	"cptgpt/internal/tracez"
)

// Degrade policies for file-sink write failures (the sink registry checks
// them against the sink). The default ("fail") keeps a hard sink error
// failing the run; "drop" and "pause" interpose a per-run circuit breaker
// between the line encoder and the sink file.
const (
	DegradeFail  = scenario.DegradeFail
	DegradePause = scenario.DegradePause
	DegradeDrop  = scenario.DegradeDrop
)

// Breaker tuning: trip after breakerThreshold consecutive write failures;
// stay open breakerCooldown before the half-open probe, doubling per
// consecutive trip up to breakerCooldownMax.
const (
	breakerThreshold   = 3
	breakerCooldown    = 100 * time.Millisecond
	breakerCooldownMax = 2 * time.Second
)

// Breaker states, exposed through the cptserved_breaker_state gauge
// (0 = closed, 1 = open, 2 = half-open).
const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen
)

// breakerWriter is a per-run sink circuit breaker. It sits between the
// line encoder and the (counting) file writer, so a sink that starts
// hard-failing — disk full, device error — stops being hammered: after
// breakerThreshold consecutive failures the breaker opens for a cooldown,
// then lets one half-open probe through; a probe failure re-opens with a
// doubled cooldown, a success closes the breaker and resets it.
//
// What happens to writes while the breaker is open is the run's degrade
// policy: "drop" discards them (counted line by line — the output file is
// lossy by design, whole events at a time, and its byte cursors stay
// accurate because dropped writes never reach the counting layer),
// "pause" blocks the drain until the probe succeeds or the run is
// cancelled (lossless, at the cost of pacer lag).
//
// Concurrency: Write runs on the single sink-drain goroutine; only the
// state/dropped/trips atomics are read concurrently (metrics, healthz).
type breakerWriter struct {
	w      io.Writer
	ctx    context.Context
	policy string
	runID  string

	fails    int
	cooldown time.Duration
	until    time.Time

	state   atomic.Int32
	dropped atomic.Int64 // lines discarded under the drop policy
	trips   atomic.Int64

	sp    tracez.Active // open-interval span, live while the breaker is open
	spDr0 int64         // dropped count when the interval began
}

func newBreakerWriter(w io.Writer, ctx context.Context, policy, runID string) *breakerWriter {
	return &breakerWriter{w: w, ctx: ctx, policy: policy, runID: runID, cooldown: breakerCooldown}
}

// trip opens the breaker for the current cooldown.
func (b *breakerWriter) trip() {
	b.trips.Add(1)
	b.state.Store(breakerOpen)
	b.until = time.Now().Add(b.cooldown)
	if b.cooldown < breakerCooldownMax {
		b.cooldown *= 2
	}
	if !b.sp.Live() {
		b.sp = tracez.Begin(tracez.StageSinkBreaker, b.runID)
		b.spDr0 = b.dropped.Load()
	}
}

// reset closes the breaker after a successful write.
func (b *breakerWriter) reset() {
	if b.sp.Live() {
		b.sp.End(b.dropped.Load()-b.spDr0, b.policy)
		b.sp = tracez.Active{}
	}
	b.fails = 0
	b.cooldown = breakerCooldown
	b.state.Store(breakerClosed)
}

func (b *breakerWriter) Write(p []byte) (int, error) {
	for {
		if b.state.Load() == breakerOpen {
			wait := time.Until(b.until)
			if wait > 0 {
				if b.policy == DegradeDrop {
					return b.drop(p), nil
				}
				// pause: block out the cooldown, or bail on cancellation so
				// a DELETE still drains promptly.
				t := time.NewTimer(wait)
				select {
				case <-t.C:
				case <-b.ctx.Done():
					t.Stop()
					return 0, b.ctx.Err()
				}
			}
			b.state.Store(breakerHalfOpen)
		}
		n, err := b.w.Write(p)
		if err == nil {
			b.reset()
			return n, nil
		}
		b.fails++
		if b.state.Load() == breakerHalfOpen || b.fails >= breakerThreshold {
			b.trip()
			continue
		}
		// Below the trip threshold the policy still governs the failure:
		// drop discards this write, pause re-attempts immediately (the
		// loop reaches the threshold and trips within two more writes).
		if b.policy == DegradeDrop {
			return b.drop(p), nil
		}
		if b.ctx.Err() != nil {
			return n, b.ctx.Err()
		}
	}
}

// drop discards one write under the drop policy and counts what it held.
// The line encoder hands down whole lines only, so the count is events
// (plus the header line, should a csv file lose its first block) and the
// file never holds a line spliced from two.
func (b *breakerWriter) drop(p []byte) int {
	b.dropped.Add(int64(bytes.Count(p, []byte{'\n'})))
	return len(p)
}

// finishSpan closes a still-open breaker interval span at end of stream.
func (b *breakerWriter) finishSpan() {
	if b.sp.Live() {
		b.sp.End(b.dropped.Load()-b.spDr0, b.policy)
		b.sp = tracez.Active{}
	}
}

// breakerState renders the run's breaker for the metrics gauge:
// 0 closed (or no breaker), 1 open, 2 half-open.
func (r *run) breakerState() float64 {
	if b := r.breaker.Load(); b != nil {
		return float64(b.state.Load())
	}
	return 0
}
