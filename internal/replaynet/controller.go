package replaynet

// SLO-search controller: finds the maximum sustained offered load (events/s)
// a replaynet server can absorb while the p99 send→acknowledge transaction
// latency stays within an SLO. The controller rides on the closed-loop
// driver: it paces transmissions at a candidate rate, measures each probe
// window's p99 out of the O(1)-memory log-bucket histogram, and steers the
// rate with a multiplicative ramp followed by geometric bisection. The
// decision logic is a pure state machine (sloSearchState) so convergence is
// deterministic given the sequence of window verdicts — the only
// nondeterminism left is the measured latency itself.

import (
	"errors"
	"math"
	"time"

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

	// Test seams, zero = the default. rampFactor multiplies the rate while
	// no upper bound is known (and divides it while no lower bound is
	// known); default 2.
	rampFactor float64
	// tolerance stops the bisection once hi/lo ≤ 1+tolerance; default 0.25.
	tolerance float64
	// maxRounds bounds the number of probe windows; default 16.
	maxRounds int
	// minAchievedFrac: a window only passes if the achieved ack rate is at
	// least this fraction of the offered rate (otherwise the server is
	// saturated even if queues hide it from p99); default 0.85.
	minAchievedFrac float64
}

func (o SearchOpts) withDefaults() SearchOpts {
	if o.InitialRate <= 0 {
		o.InitialRate = 200
	}
	if o.WindowEvents <= 0 {
		o.WindowEvents = 400
	}
	if o.rampFactor <= 1 {
		o.rampFactor = 2
	}
	if o.tolerance <= 0 {
		o.tolerance = 0.25
	}
	if o.maxRounds <= 0 {
		o.maxRounds = 16
	}
	if o.minAchievedFrac <= 0 || o.minAchievedFrac > 1 {
		o.minAchievedFrac = 0.85
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
		st.rate = st.lo * st.o.rampFactor
	case st.lo == 0:
		st.rate = st.hi / st.o.rampFactor
	default:
		st.rate = math.Sqrt(st.lo * st.hi)
	}
}

// SLOSearch drives src against a replaynet server in closed loop, ramping
// the offered event rate to find the maximum sustained load whose p99
// transaction latency stays within search.SLOP99. The source must be long
// enough to feed the round budget (16 probe windows); if it runs dry first
// the result carries Converged=false and the best bracket found so far.
func SLOSearch(addr string, gen events.Generation, src trace.ArrivalSource, opts ClosedOpts, search SearchOpts) (SearchResult, error) {
	if search.SLOP99 <= 0 {
		return SearchResult{}, errors.New("replaynet: SLOSearch requires a positive SLOP99")
	}
	search, opts = search.withDefaults(), opts.withDefaults()

	st := newSLOSearchState(search)
	result := SearchResult{}
	slo := search.SLOP99.Seconds()

	winHist := telemetry.NewHistogram(telemetry.LatencyBuckets)
	var winStart time.Time  // clock start of the current window's ack count
	var winSendBase float64 // send index at window start
	var sendIdx float64

	// due paces sends uniformly at the current probe rate.
	due := func(trace.Arrival) time.Time {
		if winStart.IsZero() {
			winStart = opts.clock.Now()
		}
		return winStart.Add(time.Duration((sendIdx - winSendBase) / st.rate * float64(time.Second)))
	}
	onSend := func() { sendIdx++ }
	onAck := func(_ int, now time.Time) bool {
		if st.done {
			return false // already decided; in-flight acks are just drained
		}
		n := int(winHist.Count())
		if n < search.WindowEvents {
			return true
		}
		p99 := winHist.Quantile(0.99)
		mean := winHist.Mean()
		elapsed := now.Sub(winStart).Seconds()
		achieved := 0.0
		if elapsed > 0 {
			achieved = float64(n) / elapsed
		}
		met := p99 <= slo && achieved >= search.minAchievedFrac*st.rate
		result.Rounds = append(result.Rounds, ProbeRound{
			Rate:     st.rate,
			Achieved: achieved,
			P99:      time.Duration(p99 * 1e9),
			Mean:     time.Duration(mean * 1e9),
			Events:   n,
			Met:      met,
		})
		st.observe(met)
		if st.done {
			return false // stop pulling the source; in-flight events drain
		}
		// Next window: fresh histogram, fresh wall base, pace from the
		// current send index so the new rate applies immediately.
		winHist.Reset()
		winStart = now
		winSendBase = sendIdx
		return true
	}
	hooks := closedHooks{due: due, onSend: onSend, onAck: onAck}
	transport, err := runClosed(addr, gen, src, opts, hooks, winHist)
	if err != nil {
		return SearchResult{}, err
	}
	result.Transport = transport
	result.MaxRate = st.lo
	result.Converged = st.converged
	return result, nil
}
