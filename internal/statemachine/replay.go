package statemachine

import (
	"cptgpt/internal/events"
)

// Violation records one semantically invalid event observed during replay:
// event Event arrived while the machine was in state State, at stream
// position Index (0-based, counting all events including pre-bootstrap ones).
type Violation struct {
	Index int
	State State
	Event events.Type
}

// StateEvent is a (state, event) pair, used to aggregate violation
// frequencies as in Table 3 of the paper.
type StateEvent struct {
	State State
	Event events.Type
}

// ReplayResult summarizes the replay of a single stream against the UE
// state machine.
type ReplayResult struct {
	// Counted is the number of events that participated in the semantic
	// check (events preceding the bootstrap event are excluded, per §5.2.1).
	Counted int
	// Skipped is the number of events that preceded the bootstrap event.
	Skipped int
	// Violations lists each state-violating event in order.
	Violations []Violation
	// SojournConnected holds completed CONNECTED-state sojourn durations in
	// seconds, in order of occurrence.
	SojournConnected []float64
	// SojournIdle holds completed IDLE-state sojourn durations in seconds.
	SojournIdle []float64
	// Final is the machine state after the last event.
	Final State
	// Bootstrapped reports whether any event fixed the initial state; when
	// false the whole stream was skipped.
	Bootstrapped bool
}

// Violated reports whether the stream contained at least one violating
// event, the per-stream criterion used in Tables 3 and 5.
func (r *ReplayResult) Violated() bool { return len(r.Violations) > 0 }

// UE is one UE's replay state: the machine state, and whether an event has
// fixed it yet. The zero value is a UE nothing is known about.
type UE struct {
	State State
	Boot  bool
}

// Apply feeds u one event under the paper's replay rule (§5.2.1), the one
// every per-UE consumer in this repository follows:
//
//   - until the first deterministic-destination event (Bootstrap) fixes the
//     state, events are admitted without a check and leave u untouched;
//   - after it, a legal event advances u.State, and a violating one returns
//     ok=false and leaves the state unchanged.
func (m Machine) Apply(u *UE, e events.Type) (ok bool) {
	if !u.Boot {
		if s, boot := m.Bootstrap(e); boot {
			u.State, u.Boot = s, true
		}
		return true
	}
	u.State, ok = m.Step(u.State, e)
	return ok
}

// Replay feeds a stream of events with absolute timestamps (seconds) through
// the state machine of m, applying each with Apply and accounting for it as
// the paper's methodology does:
//
//   - events preceding the bootstrap event are skipped and not counted;
//   - a violating event increments the violation count;
//   - the duration spent in each top-level CONNECTED or IDLE visit is
//     recorded as a sojourn sample when the visit completes.
//
// evs and ts must have equal length; ts must be non-decreasing for sojourn
// durations to be meaningful (the replay itself does not reorder).
func Replay(m Machine, evs []events.Type, ts []float64) ReplayResult {
	var res ReplayResult
	if len(evs) != len(ts) {
		panic("statemachine: Replay called with mismatched event/timestamp lengths")
	}
	var u UE
	top := Top(u.State) // DEREGISTERED: a visit that records no sojourn
	var topSince float64
	for i, e := range evs {
		ok := m.Apply(&u, e)
		if !u.Boot {
			res.Skipped++
			continue
		}
		res.Counted++
		if !ok {
			res.Violations = append(res.Violations, Violation{Index: i, State: u.State, Event: e})
			continue
		}
		if nt := Top(u.State); nt != top {
			switch top {
			case TopConnected:
				res.SojournConnected = append(res.SojournConnected, ts[i]-topSince)
			case TopIdle:
				res.SojournIdle = append(res.SojournIdle, ts[i]-topSince)
			}
			top, topSince = nt, ts[i]
		}
	}
	res.Bootstrapped = u.Boot
	res.Final = u.State
	return res
}

// AggregateReplay accumulates replay results across many streams into the
// quantities the fidelity metrics need.
type AggregateReplay struct {
	Streams          int
	ViolatedStreams  int
	CountedEvents    int
	ViolatingEvents  int
	ByStateEvent     map[StateEvent]int
	SojournConnected []float64 // all sojourn samples, pooled
	SojournIdle      []float64
	// MeanConnectedPerUE / MeanIdlePerUE hold the per-stream mean sojourn,
	// one entry per stream that had at least one completed sojourn. These
	// feed the per-UE average CDFs of Figure 2 / Figure 5.
	MeanConnectedPerUE []float64
	MeanIdlePerUE      []float64
}

// NewAggregateReplay returns an empty aggregator.
func NewAggregateReplay() *AggregateReplay {
	return &AggregateReplay{ByStateEvent: make(map[StateEvent]int)}
}

// Add folds one stream's replay result into the aggregate.
func (a *AggregateReplay) Add(r *ReplayResult) {
	a.Streams++
	if r.Violated() {
		a.ViolatedStreams++
	}
	a.CountedEvents += r.Counted
	a.ViolatingEvents += len(r.Violations)
	for _, v := range r.Violations {
		a.ByStateEvent[StateEvent{State: v.State, Event: v.Event}]++
	}
	a.SojournConnected = append(a.SojournConnected, r.SojournConnected...)
	a.SojournIdle = append(a.SojournIdle, r.SojournIdle...)
	if n := len(r.SojournConnected); n > 0 {
		a.MeanConnectedPerUE = append(a.MeanConnectedPerUE, mean(r.SojournConnected))
	}
	if n := len(r.SojournIdle); n > 0 {
		a.MeanIdlePerUE = append(a.MeanIdlePerUE, mean(r.SojournIdle))
	}
}

// EventViolationRate returns the fraction of counted events that violated
// the state machine, in [0, 1].
func (a *AggregateReplay) EventViolationRate() float64 {
	if a.CountedEvents == 0 {
		return 0
	}
	return float64(a.ViolatingEvents) / float64(a.CountedEvents)
}

// StreamViolationRate returns the fraction of streams with at least one
// violating event, in [0, 1].
func (a *AggregateReplay) StreamViolationRate() float64 {
	if a.Streams == 0 {
		return 0
	}
	return float64(a.ViolatedStreams) / float64(a.Streams)
}

// TopViolations returns up to n (state, event) pairs with the highest
// violation counts, ordered by descending count (Table 3's breakdown). The
// second return value gives each pair's share of counted events.
func (a *AggregateReplay) TopViolations(n int) ([]StateEvent, []float64) {
	type kv struct {
		k StateEvent
		v int
	}
	pairs := make([]kv, 0, len(a.ByStateEvent))
	for k, v := range a.ByStateEvent {
		pairs = append(pairs, kv{k, v})
	}
	// Insertion sort by descending count, tie-broken deterministically so
	// output is stable across map iteration orders.
	for i := 1; i < len(pairs); i++ {
		for j := i; j > 0; j-- {
			pj, pj1 := pairs[j], pairs[j-1]
			if pj.v > pj1.v ||
				(pj.v == pj1.v && (pj.k.State < pj1.k.State ||
					(pj.k.State == pj1.k.State && pj.k.Event < pj1.k.Event))) {
				pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
			} else {
				break
			}
		}
	}
	if n > len(pairs) {
		n = len(pairs)
	}
	keys := make([]StateEvent, n)
	shares := make([]float64, n)
	for i := 0; i < n; i++ {
		keys[i] = pairs[i].k
		if a.CountedEvents > 0 {
			shares[i] = float64(pairs[i].v) / float64(a.CountedEvents)
		}
	}
	return keys, shares
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
