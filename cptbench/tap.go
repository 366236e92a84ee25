package main

import (
	"math"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/scenario"
	"cptgpt/internal/statemachine"
)

// tap sits between a scenario stream and its sink and checks, from outside
// the program, what a sink is promised: events arrive in (time, ue, seq)
// order, and the same inputs give the same events (digest). With a state
// machine attached it also replays each UE's events against the 3GPP
// machine, the paper's validity measure. Timed, it samples how long the
// stream's Next takes, which splits a drain into merge and sink time.
type tap struct {
	src scenario.EventSource

	n        int64
	disorder int64
	last     scenario.Event
	digest   uint64

	sm *smReplay

	timed      bool
	timedCalls int64
	nextNanos  int64
}

// timeEvery is the sampling period of the Next timer: two clock reads per
// event would cost a fifth of a 600 ns synthetic event.
const timeEvery = 16

func (t *tap) Next() (scenario.Event, bool) {
	var t0 time.Time
	sample := t.timed && t.n%timeEvery == 0
	if sample {
		t0 = time.Now()
	}
	e, ok := t.src.Next()
	if sample {
		t.nextNanos += int64(time.Since(t0))
		t.timedCalls++
	}
	if !ok {
		return e, false
	}
	if t.n > 0 && before(e, t.last) {
		t.disorder++
	}
	t.last = e
	t.n++
	t.digest = mixEvent(t.digest, e)
	if t.sm != nil {
		t.sm.observe(e)
	}
	return e, true
}

func (t *tap) Err() error                    { return t.src.Err() }
func (t *tap) Generation() events.Generation { return t.src.Generation() }
func (t *tap) UEID(e scenario.Event) string  { return t.src.UEID(e) }

// nextNanosPerEvent is the sampled mean time inside the stream's Next,
// less what reading the clock twice costs by itself.
func (t *tap) nextNanosPerEvent() float64 {
	return float64(t.nextNanos)/float64(max(t.timedCalls, 1)) - clockNanos()
}

// clockNanos measures the cost of one time.Now/time.Since pair.
func clockNanos() float64 {
	const pairs = 4096
	var sum time.Duration
	for i := 0; i < pairs; i++ {
		t0 := time.Now()
		sum += time.Since(t0)
	}
	return float64(sum) / pairs
}
func mix(h, x uint64) uint64 { return (h ^ x) * 0x100000001b3 }
func mixEvent(h uint64, e scenario.Event) uint64 {
	h = mix(h, math.Float64bits(e.Time))
	h = mix(h, e.UE)
	return mix(h, uint64(e.Seq)<<16|uint64(e.Device)<<8|uint64(e.Type))
}

// before reports whether a precedes b in the merge's total order
// (Time, UE, Seq).
func before(a, b scenario.Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.UE != b.UE {
		return a.UE < b.UE
	}
	return a.Seq < b.Seq
}

// smReplay replays a merged event sequence per UE with the semantics of
// statemachine.Replay: the first deterministic-destination event fixes a
// UE's state, earlier events are skipped, a violating event is counted and
// leaves the state unchanged.
type smReplay struct {
	m          statemachine.Machine
	ues        map[uint64]ueState
	counted    int64
	violations int64
}

type ueState struct {
	s    statemachine.State
	boot bool
}

func newSMReplay(g events.Generation) *smReplay {
	return &smReplay{m: statemachine.New(g), ues: make(map[uint64]ueState)}
}

func (r *smReplay) observe(e scenario.Event) {
	u := r.ues[e.UE]
	if !u.boot {
		s, ok := r.m.Bootstrap(e.Type)
		if !ok {
			return
		}
		r.counted++
		r.ues[e.UE] = ueState{s, true}
		return
	}
	r.counted++
	next, ok := r.m.Step(u.s, e.Type)
	if !ok {
		r.violations++
		return
	}
	r.ues[e.UE] = ueState{next, true}
}

func (r *smReplay) violationRate() float64 {
	if r.counted == 0 {
		return 0
	}
	return float64(r.violations) / float64(r.counted)
}
