package replaynet

// SLO-search controller: finds the maximum sustained offered load (events/s)
// a replaynet server can absorb while the p99 send→acknowledge transaction
// latency stays within an SLO. The controller is a source, not a second
// driver: a probe source wraps the event source, paces it at a candidate
// rate through the OnIdle contract every source that paces itself keeps,
// and is replayed by ReplayClosed like any other. It reads each probe
// window's p99 out of the run's RTTSink (the O(1)-memory log-bucket
// histogram) and steers the rate with a multiplicative ramp followed by
// geometric bisection. The decision logic is a pure state machine
// (sloSearchState) so convergence is deterministic given the sequence of
// window verdicts — the only nondeterminism left is the measured latency
// itself.

import (
	"errors"
	"math"
	"time"

	"cptgpt/internal/clock"
	"cptgpt/internal/events"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/trace"
)

// SearchOpts tunes the SLO search.
type SearchOpts struct {
	// SLOP99 is the p99 transaction-latency objective. Required.
	SLOP99 time.Duration
	// InitialRate is the first probe's offered rate in events/s; default 200.
	InitialRate float64
	// WindowEvents is the number of acknowledged transactions per probe
	// window; default 400.
	WindowEvents int

	// Test seams, zero = the default. tolerance stops the bisection once
	// hi/lo ≤ 1+tolerance; default 0.25.
	tolerance float64
	// maxRounds bounds the number of probe windows; default 16.
	maxRounds int
}

// rampFactor multiplies the rate while no upper bound is known (and divides
// it while no lower bound is known). A window passes only if its achieved
// ack rate is at least minAchievedFrac of the offered rate: below it the
// server is saturated even if queues hide it from p99.
const (
	rampFactor      = 2.0
	minAchievedFrac = 0.85
)

func (o SearchOpts) withDefaults() SearchOpts {
	if o.InitialRate <= 0 {
		o.InitialRate = 200
	}
	if o.WindowEvents <= 0 {
		o.WindowEvents = 400
	}
	if o.tolerance <= 0 {
		o.tolerance = 0.25
	}
	if o.maxRounds <= 0 {
		o.maxRounds = 16
	}
	return o
}

// ProbeRound records one probe window's verdict.
type ProbeRound struct {
	// Rate is the offered rate (events/s); Achieved the measured ack rate.
	Rate     float64       `json:"rate"`
	Achieved float64       `json:"achieved"`
	P99      time.Duration `json:"p99"`
	Mean     time.Duration `json:"mean"`
	Events   int           `json:"events"`
	Met      bool          `json:"met"`
}

// SearchResult is the outcome of an SLO search.
type SearchResult struct {
	// MaxRate is the highest offered rate that met the SLO (the converged
	// lower bound), 0 if no probed rate ever met it.
	MaxRate float64 `json:"max_rate"`
	// Converged reports whether the bracket tightened to within tolerance
	// before the round budget or the event source ran out.
	Converged bool `json:"converged"`
	// Rounds are the probe windows in order.
	Rounds []ProbeRound `json:"rounds"`
	// Transport is the underlying closed-loop replay's transport summary.
	// Its latencies cover the final probe window and the drain behind it
	// (each round carries its own p99 and mean); the counts, rate and
	// congestion state cover the whole run.
	Transport ClosedStats `json:"transport"`
}

// sloSearchState is the pure rate-steering state machine: feed it one
// verdict per probe window via observe and read the next offered rate from
// rate. Exact-arithmetic determinism — given the same verdict sequence it
// always visits the same rates.
type sloSearchState struct {
	o      SearchOpts
	lo, hi float64 // bracket; hi == 0 means "no violation seen yet"
	rate   float64
	rounds int

	done      bool
	converged bool
}

func newSLOSearchState(o SearchOpts) *sloSearchState {
	return &sloSearchState{o: o, rate: o.InitialRate}
}

// observe folds one window verdict and steers the next probe rate:
// multiplicative ramp while the capacity is unbracketed, then geometric
// bisection (sqrt(lo·hi)) until hi/lo ≤ 1+tolerance.
func (st *sloSearchState) observe(met bool) {
	if st.done {
		return
	}
	st.rounds++
	if met {
		if st.rate > st.lo {
			st.lo = st.rate
		}
	} else if st.hi == 0 || st.rate < st.hi {
		st.hi = st.rate
	}
	if st.lo > 0 && st.hi > 0 && st.hi/st.lo <= 1+st.o.tolerance {
		st.done, st.converged = true, true
		return
	}
	if st.rounds >= st.o.maxRounds {
		st.done = true
		return
	}
	switch {
	case st.hi == 0:
		st.rate = st.lo * rampFactor
	case st.lo == 0:
		st.rate = st.hi / rampFactor
	default:
		st.rate = math.Sqrt(st.lo * st.hi)
	}
}

// probeSource is the search's source: it releases src's events at the
// current probe rate, event i of a window at the window's start +
// (i−base)/rate, announcing each wait to the driver's idle hook first. Its
// window histogram is the run's ClosedOpts.RTTSink, into which the driver
// records every sampled latency; a window closes at the first pull after
// its WindowEvents-th sample, and the stream ends once the search is
// decided. It runs on the driver's goroutine, like any source.
type probeSource struct {
	src    trace.ArrivalSource
	st     *sloSearchState
	clk    clock.Clock
	hist   *telemetry.Histogram // the current window's samples
	idle   func(until time.Time)
	rounds []ProbeRound

	start   time.Time // the current window's first pull
	i, base float64   // releases so far; releases before the window
}

func newProbeSource(src trace.ArrivalSource, search SearchOpts, clk clock.Clock) *probeSource {
	return &probeSource{src: src, st: newSLOSearchState(search), clk: clk, hist: telemetry.NewHistogram(telemetry.LatencyBuckets)}
}

// OnIdle registers the driver's idle hook (ReplayClosed does, before the
// first pull).
func (p *probeSource) OnIdle(fn func(until time.Time)) { p.idle = fn }

func (p *probeSource) NextArrival() (trace.Arrival, bool, error) {
	now := p.clk.Now()
	if p.start.IsZero() {
		p.start = now
	}
	if n := int(p.hist.Count()); !p.st.done && n >= p.st.o.WindowEvents {
		p.closeWindow(n, now)
	}
	if p.st.done {
		return trace.Arrival{}, false, nil
	}
	ev, ok, err := p.src.NextArrival()
	if !ok || err != nil {
		return ev, ok, err
	}
	due := p.start.Add(time.Duration((p.i - p.base) / p.st.rate * float64(time.Second)))
	p.i++
	if due.After(p.clk.Now()) {
		p.idle(due)
		clock.Sleep(p.clk, due.Sub(p.clk.Now())) // what the hook left
	}
	return ev, true, nil
}

// closeWindow records the verdict on the window's n samples at now and
// steers the rate. Unless that decides the search, the next window starts
// at now with a fresh histogram; the final window's samples stay, for the
// run's report.
func (p *probeSource) closeWindow(n int, now time.Time) {
	achieved := 0.0
	if el := now.Sub(p.start).Seconds(); el > 0 {
		achieved = float64(n) / el
	}
	p99 := p.hist.Quantile(0.99)
	met := p99 <= p.st.o.SLOP99.Seconds() && achieved >= minAchievedFrac*p.st.rate
	p.rounds = append(p.rounds, ProbeRound{
		Rate:     p.st.rate,
		Achieved: achieved,
		P99:      time.Duration(p99 * 1e9),
		Mean:     time.Duration(p.hist.Mean() * 1e9),
		Events:   n,
		Met:      met,
	})
	p.st.observe(met)
	if !p.st.done {
		p.hist.Reset()
		p.start, p.base = now, p.i
	}
}

// SLOSearch drives src against a replaynet server in closed loop, ramping
// the offered event rate to find the maximum sustained load whose p99
// transaction latency stays within search.SLOP99. The source must be long
// enough to feed the round budget (16 probe windows); if it runs dry first
// the result carries Converged=false and the best bracket found so far. The
// search owns opts.RTTSink (its window histogram): one given is replaced.
func SLOSearch(addr string, gen events.Generation, src trace.ArrivalSource, opts ClosedOpts, search SearchOpts) (SearchResult, error) {
	if search.SLOP99 <= 0 {
		return SearchResult{}, errors.New("replaynet: SLOSearch requires a positive SLOP99")
	}
	opts = opts.withDefaults()
	p := newProbeSource(src, search.withDefaults(), opts.clock)
	opts.RTTSink = p.hist
	transport, err := ReplayClosed(addr, gen, p, opts)
	if err != nil {
		return SearchResult{}, err
	}
	return SearchResult{MaxRate: p.st.lo, Converged: p.st.converged, Rounds: p.rounds, Transport: transport}, nil
}
