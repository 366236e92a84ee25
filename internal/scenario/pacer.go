package scenario

import (
	"context"
	"sync/atomic"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/tracez"
)

// EventSource is the consumer-side contract of a scenario event sequence:
// Next yields events in the merge's (Time, UE, Seq) total order until
// ok=false, after which Err distinguishes clean exhaustion (nil) from a
// pipeline failure. Both *Stream and *Pacer implement it, and every sink
// (Sink.Consume; the registry in sinks.go has the list) consumes it, so
// pacing and other stages compose between the merge and any sink.
//
// Next is single-consumer: one goroutine pulls at a time.
type EventSource interface {
	Next() (e Event, ok bool)
	Err() error
	Generation() events.Generation
	UEID(Event) string
}

// UEIDAppender returns src's identifier renderer in append form: its
// AppendUEID method where it has one (*Stream does; *Pacer and the
// daemon's checkpoint tap forward theirs), else UEID's string appended.
// The line sinks render one identifier per event through it; EventSource
// itself stays four methods wide for implementers outside this module's
// packages.
func UEIDAppender(src EventSource) func(dst []byte, e Event) []byte {
	if a, ok := src.(interface {
		AppendUEID(dst []byte, e Event) []byte
	}); ok {
		return a.AppendUEID
	}
	return func(dst []byte, e Event) []byte { return append(dst, src.UEID(e)...) }
}

// Pacer re-times an event source to the wall clock: an event carrying
// trace timestamp t is released no earlier than start + (t-t0)/Compression
// wall time, where t0 is the first event's timestamp and start the wall
// instant it was released. Compression c plays c seconds of trace time per
// wall second (1 = real time, 3600 = an hour per second); Compression 0
// disables pacing and the Pacer degrades to a pure cancellation/counting
// stage.
//
// The end of the context — a cancellation or a deadline alike — ends the
// stream cleanly between events: an event already pulled from the source
// is still released (never severed mid-flight), the next Next returns
// ok=false with Err()==nil, and Stopped reports true so callers can tell a
// stop from exhaustion. Downstream sinks observe an ordinary end-of-stream
// and flush normally — this is the graceful-drain seam the daemon's
// DELETE /runs/{id} uses. Whoever armed a deadline decides what its expiry
// means (the daemon types it as a wall-clock budget breach).
//
// Concurrency: Next is single-consumer; Events, Lag and Stopped are atomic
// reads safe from any goroutine while Next runs (they back the daemon's
// live telemetry).
type Pacer struct {
	src         EventSource
	appendID    func([]byte, Event) []byte
	ctx         context.Context
	compression float64

	started  bool
	start    time.Time
	t0       float64
	resumeT0 float64
	resumed  bool
	timer    *time.Timer
	done     bool
	onIdle   func()

	// Event-count ceiling (SetBudget); budgetErr, once set, is the
	// stream's terminal error.
	maxEvents int64
	budgetErr error

	events  atomic.Int64
	lag     atomic.Int64 // nanoseconds behind schedule at the last release
	stopped atomic.Bool

	// Distribution sinks (see SetHistograms) and achieved-rate window
	// accounting. winStart/winN belong to the single consumer goroutine.
	lagHist  *telemetry.Histogram
	rateHist *telemetry.Histogram
	winStart time.Time
	winN     int64
	winSkip  int64 // unpaced releases since the clock was last read
}

// NewPacer wraps src with wall-clock pacing under ctx. A nil ctx means
// context.Background(); compression <= 0 disables pacing.
func NewPacer(ctx context.Context, src EventSource, compression float64) *Pacer {
	if ctx == nil {
		ctx = context.Background()
	}
	if compression < 0 {
		compression = 0
	}
	return &Pacer{src: src, appendID: UEIDAppender(src), ctx: ctx, compression: compression}
}

// ResumeAt anchors the pacer's trace-time origin at t0 instead of the
// first event's timestamp. A resumed run passes its checkpointed trace
// offset here so the suffix plays at the schedule the uninterrupted run
// would have followed from that point (the wall origin is still the first
// release — recovery downtime is not replayed as lag). Call before the
// first Next.
func (p *Pacer) ResumeAt(t0 float64) {
	p.resumeT0 = t0
	p.resumed = true
}

// SetBudget bounds the stream: after b.MaxEvents releases the pacer ends
// the stream with a typed *BudgetExceededError. The other bounds are not
// the pacer's. Call before the first Next.
func (p *Pacer) SetBudget(b Budget) { p.maxEvents = b.MaxEvents }

// SetHistograms attaches distribution sinks: lag receives the release lag
// in seconds for every paced release (0 when on schedule), rate receives
// the achieved events/s of every ~1s wall window. Either may be nil. Call
// before the first Next; the daemon points these at its per-run
// cptserved_pacer_lag_seconds / cptserved_pacer_window_rate series.
func (p *Pacer) SetHistograms(lag, rate *telemetry.Histogram) {
	p.lagHist = lag
	p.rateHist = rate
}

// idleAfter is the shortest pacing wait announced through OnIdle: the replay
// drivers' write-buffer flush interval. A consumer flushes that often while
// events flow, so only a longer wait can strand what it has buffered.
const idleAfter = 20 * time.Millisecond

// OnIdle registers fn to run on the consumer's goroutine, inside Next, just
// before a pacing wait of at least idleAfter. A consumer that buffers its
// output registers its flush here — to it the wait is hidden inside Next —
// so paced events reach the wire on their schedule, not a wait late. Dense
// schedules never call it. Call before the first Next.
func (p *Pacer) OnIdle(fn func()) { p.onIdle = fn }

// windowTick advances the achieved-rate window accounting by one released
// event and flushes the window once it spans ≥ 1s of wall time.
func (p *Pacer) windowTick(now time.Time) {
	if p.winStart.IsZero() {
		p.winStart = now
	}
	p.winN++
	if el := now.Sub(p.winStart); el >= time.Second {
		if p.rateHist != nil {
			p.rateHist.Observe(float64(p.winN) / el.Seconds())
		}
		tracez.Record(tracez.StagePacerWindow, "", p.winStart, el, p.winN, "")
		p.winStart = now
		p.winN = 0
	}
}

// flushWindow emits the final partial achieved-rate window at end of
// stream, so even a sub-second run records one window observation.
func (p *Pacer) flushWindow() {
	p.winN += p.winSkip
	p.winSkip = 0
	if p.winStart.IsZero() || p.winN == 0 {
		return
	}
	el := time.Since(p.winStart)
	if el > 0 {
		if p.rateHist != nil {
			p.rateHist.Observe(float64(p.winN) / el.Seconds())
		}
		tracez.Record(tracez.StagePacerWindow, "", p.winStart, el, p.winN, "")
	}
	p.winN = 0
}

// endStream finalizes the iterator state shared by every end-of-stream
// path (context end, budget exhaustion, source exhaustion).
func (p *Pacer) endStream() {
	p.done = true
	p.flushWindow()
}

// Next releases the source's next event at its paced wall time.
func (p *Pacer) Next() (Event, bool) {
	if p.done {
		return Event{}, false
	}
	if p.ctx.Err() != nil {
		p.endStream()
		p.stopped.Store(true)
		return Event{}, false
	}
	if limit := p.maxEvents; limit > 0 && p.events.Load() >= limit {
		p.endStream()
		p.budgetErr = &BudgetExceededError{Kind: BudgetEvents, Limit: limit, Used: p.events.Load()}
		return Event{}, false
	}
	e, ok := p.src.Next()
	if !ok {
		p.endStream()
		return Event{}, false
	}
	// Achieved-rate windows need the wall clock; skip entirely unless
	// something is listening (one atomic load when tracing is off).
	trackWin := p.rateHist != nil || tracez.Enabled()
	if p.compression > 0 {
		now := time.Now()
		if !p.started {
			p.started = true
			p.start = now
			if p.resumed {
				p.t0 = p.resumeT0
			} else {
				p.t0 = e.Time
			}
		}
		target := p.start.Add(time.Duration((e.Time - p.t0) / p.compression * float64(time.Second)))
		wait := target.Sub(now)
		if wait > 0 {
			p.lag.Store(0)
			if p.lagHist != nil {
				p.lagHist.Observe(0)
			}
			waitSp := tracez.Begin(tracez.StagePacerWait, "")
			if p.onIdle != nil && wait >= idleAfter {
				p.onIdle()
				wait = time.Until(target) // less what the hook took
			}
			if p.timer == nil {
				p.timer = time.NewTimer(wait)
			} else {
				p.timer.Reset(wait)
			}
			select {
			case <-p.timer.C:
			case <-p.ctx.Done():
				if !p.timer.Stop() {
					<-p.timer.C
				}
				// Release the in-flight event immediately; the next call
				// observes the cancellation and ends the stream.
			}
			waitSp.End(1, "")
			if trackWin {
				p.windowTick(time.Now())
			}
		} else {
			// Behind schedule: release immediately and record the deficit —
			// a backlog drains with no waits, each event still at or after
			// its target.
			p.lag.Store(int64(-wait))
			if p.lagHist != nil {
				p.lagHist.Observe((-wait).Seconds())
			}
			if trackWin {
				p.windowTick(now)
			}
		}
	} else if trackWin {
		// Nothing paces an unpaced release, so only the rate window wants
		// the clock: read it on the first release and every 64th after,
		// and let a window close up to 63 releases late. flushWindow folds
		// in what is still uncounted at end of stream.
		p.winSkip++
		if p.winStart.IsZero() || p.winSkip == 64 {
			p.winN += p.winSkip - 1
			p.winSkip = 0
			p.windowTick(time.Now())
		}
	}
	p.events.Add(1)
	return e, true
}

// Err reports the source's error, or the typed *BudgetExceededError that
// ended the stream. A context cancellation is a clean stop, not an error
// — see Stopped.
func (p *Pacer) Err() error {
	if p.budgetErr != nil {
		return p.budgetErr
	}
	return p.src.Err()
}

// Generation returns the underlying source's technology generation.
func (p *Pacer) Generation() events.Generation { return p.src.Generation() }

// UEID delegates to the underlying source.
func (p *Pacer) UEID(e Event) string { return p.src.UEID(e) }

// AppendUEID delegates to the underlying source (see UEIDAppender).
func (p *Pacer) AppendUEID(dst []byte, e Event) []byte { return p.appendID(dst, e) }

// Compression returns the configured time-compression factor (0 = unpaced).
func (p *Pacer) Compression() float64 { return p.compression }

// Events returns the number of events released so far. Safe concurrently
// with Next.
func (p *Pacer) Events() int64 { return p.events.Load() }

// Lag returns how far behind schedule the last release was (0 when the
// pacer is keeping up or pacing is disabled). Safe concurrently with Next.
func (p *Pacer) Lag() time.Duration { return time.Duration(p.lag.Load()) }

// Stopped reports whether the stream ended because the context ended
// rather than by source exhaustion. Safe concurrently with Next.
func (p *Pacer) Stopped() bool { return p.stopped.Load() }
