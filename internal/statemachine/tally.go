package statemachine

import (
	"cmp"
	"slices"

	"cptgpt/internal/events"
)

// StateEvent is a (state, event) pair, used to aggregate violation
// frequencies as in Table 3 of the paper.
type StateEvent struct {
	State State
	Event events.Type
}

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

// Tally replays the events of many UEs through one Machine, one event at a
// time and in any interleaving of UEs, and keeps the paper's conformance
// account of them (§5.2.1, Tables 3 and 5) together with the connected-UE
// count a stateful core holds. Each UE's events must arrive in its own time
// order; UEs may interleave freely, so a whole dataset stream by stream and
// the same dataset merged by time give the same counts and sojourns.
//
// A Tally is not safe for concurrent use.
type Tally struct {
	m Machine

	// Events counts every observed event. CountedEvents, Table 5's
	// denominator, counts those after their UE's bootstrap event: the ones
	// checked. Events before it are admitted unchecked. ViolatingEvents
	// counts the checked events the machine refused.
	Events, CountedEvents, ViolatingEvents int
	// UEs counts the distinct UEs observed; ViolatedUEs those with at least
	// one violating event (Table 5's violating streams).
	UEs, ViolatedUEs int
	// Connected is the number of UEs now in the CONNECTED top-level state;
	// PeakConnected is its high-water mark.
	Connected, PeakConnected int
	// ByStateEvent counts violating events by the state that refused them
	// and the event refused.
	ByStateEvent map[StateEvent]int

	index map[uint64]int32 // UE → its record's first-seen ordinal
	pages [][]ueTally      // the records in first-seen order, tallyPage a page
}

// tallyPage is the number of UE records a Tally allocates at a time. Pages
// never move, so a tally of n UEs allocates its records once, not the
// multiple of n that a growing slice copies through.
const tallyPage = 256

// ueTally is one UE's part of a Tally.
type ueTally struct {
	since    float64    // when the current top-level visit began
	sum      [2]float64 // completed CONNECTED and IDLE visits, seconds
	n        [2]int32   // completed CONNECTED and IDLE visits
	state    int8
	boot     bool
	violated bool
}

// visit maps a top-level state with sojourns (TopConnected, TopIdle) to its
// slot in ueTally.sum and ueTally.n.
func visit(t TopState) int { return int(t) - 1 }

// NewTally returns an empty tally over machine m.
func NewTally(m Machine) *Tally {
	return &Tally{m: m, ByStateEvent: make(map[StateEvent]int), index: make(map[uint64]int32)}
}

// Observe feeds UE ue's event e at time at (seconds) through Machine.Apply
// and accounts for it. It returns false when the machine refused e as a
// violation; an event before the UE's bootstrap is admitted (true) but not
// counted. A top-level state change completes a CONNECTED or IDLE visit,
// whose duration joins the UE's sojourns, and moves Connected.
func (t *Tally) Observe(ue uint64, e events.Type, at float64) (ok bool) {
	r := t.lookup(ue)
	t.Events++
	u := UE{State: State(r.state), Boot: r.boot}
	prev := Top(u.State)
	ok = t.m.Apply(&u, e)
	if !u.Boot {
		return true
	}
	t.CountedEvents++
	if !ok {
		t.ViolatingEvents++
		t.ByStateEvent[StateEvent{State: u.State, Event: e}]++
		if !r.violated {
			r.violated = true
			t.ViolatedUEs++
		}
		return false
	}
	r.state, r.boot = int8(u.State), true
	if top := Top(u.State); top != prev {
		if prev != TopDeregistered {
			r.sum[visit(prev)] += at - r.since
			r.n[visit(prev)]++
		}
		r.since = at
		switch {
		case top == TopConnected:
			t.Connected++
			t.PeakConnected = max(t.PeakConnected, t.Connected)
		case prev == TopConnected:
			t.Connected--
		}
	}
	return true
}

// lookup returns ue's record, adding it on first sight.
func (t *Tally) lookup(ue uint64) *ueTally {
	i, ok := t.index[ue]
	if !ok {
		i = int32(len(t.index))
		t.index[ue] = i
		t.UEs++
		if int(i)%tallyPage == 0 {
			t.pages = append(t.pages, make([]ueTally, 0, tallyPage))
		}
		p := &t.pages[len(t.pages)-1]
		*p = append(*p, ueTally{})
	}
	return &t.pages[i/tallyPage][i%tallyPage]
}

// MeanSojourns returns the mean duration in seconds of each UE's completed
// visits to top (TopConnected or TopIdle), one entry per UE with at least
// one such visit, in the order the UEs were first observed: the per-UE
// sojourn samples of Figures 2 and 5. It returns nil for TopDeregistered.
func (t *Tally) MeanSojourns(top TopState) []float64 {
	if top != TopConnected && top != TopIdle {
		return nil
	}
	k := visit(top)
	var out []float64
	for _, page := range t.pages {
		for i := range page {
			if r := &page[i]; r.n[k] > 0 {
				out = append(out, r.sum[k]/float64(r.n[k]))
			}
		}
	}
	return out
}

// EventViolationRate returns the fraction of counted events that violated
// the state machine, in [0, 1].
func (t *Tally) EventViolationRate() float64 {
	if t.CountedEvents == 0 {
		return 0
	}
	return float64(t.ViolatingEvents) / float64(t.CountedEvents)
}

// StreamViolationRate returns the fraction of UEs (streams) with at least
// one violating event, in [0, 1].
func (t *Tally) StreamViolationRate() float64 {
	if t.UEs == 0 {
		return 0
	}
	return float64(t.ViolatedUEs) / float64(t.UEs)
}

// TopViolations returns up to n (state, event) pairs with the highest
// violation counts, ordered by descending count, then state, then event
// (Table 3's breakdown). The second return value gives each pair's share of
// counted events.
func (t *Tally) TopViolations(n int) ([]StateEvent, []float64) {
	keys := make([]StateEvent, 0, len(t.ByStateEvent))
	for k := range t.ByStateEvent {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b StateEvent) int {
		if c := cmp.Compare(t.ByStateEvent[b], t.ByStateEvent[a]); c != 0 {
			return c
		}
		if c := cmp.Compare(a.State, b.State); c != 0 {
			return c
		}
		return cmp.Compare(a.Event, b.Event)
	})
	keys = keys[:min(n, len(keys))]
	shares := make([]float64, len(keys))
	for i, k := range keys {
		if t.CountedEvents > 0 {
			shares[i] = float64(t.ByStateEvent[k]) / float64(t.CountedEvents)
		}
	}
	return keys, shares
}
