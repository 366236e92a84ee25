package main

import (
	"sort"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/metrics"
	"cptgpt/internal/scenario"
	"cptgpt/internal/synthetic"
	"cptgpt/internal/trace"
)

// sliceSource feeds a fixed event sequence to a sink.
type sliceSource struct {
	evs []scenario.Event
	at  int
}

func (s *sliceSource) Next() (scenario.Event, bool) {
	if s.at == len(s.evs) {
		return scenario.Event{}, false
	}
	s.at++
	return s.evs[s.at-1], true
}
func (s *sliceSource) Err() error                    { return nil }
func (s *sliceSource) Generation() events.Generation { return events.Gen4G }
func (s *sliceSource) UEID(scenario.Event) string    { return "" }

// merged flattens a dataset into the scenario engine's (time, ue, seq) order.
func merged(d *trace.Dataset) []scenario.Event {
	var evs []scenario.Event
	for ue := range d.Streams {
		for seq, ev := range d.Streams[ue].Events {
			evs = append(evs, scenario.Event{Time: ev.Time, UE: uint64(ue), Seq: uint32(seq), Type: ev.Type})
		}
	}
	sort.Slice(evs, func(i, j int) bool { return before(evs[i], evs[j]) })
	return evs
}

func drain(t *testing.T, evs []scenario.Event, sm *smReplay) *tap {
	t.Helper()
	tp := &tap{src: &sliceSource{evs: evs}, sm: sm, timed: true}
	sum, err := scenario.Drain(tp)
	if err != nil || sum.Events != len(evs) {
		t.Fatalf("drained %d of %d events, err %v", sum.Events, len(evs), err)
	}
	return tp
}

func dataset(t *testing.T) *trace.Dataset {
	t.Helper()
	d, err := synthetic.Generate(synthetic.Config{
		Generation: events.Gen4G, Seed: 3, Hours: 1, StartHour: 9,
		UEs: map[events.DeviceType]int{events.Phone: 40, events.Tablet: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestTapChecksOrderAndDigest(t *testing.T) {
	evs := merged(dataset(t))
	a, b := drain(t, evs, nil), drain(t, evs, nil)
	if a.disorder != 0 || a.n != int64(len(evs)) {
		t.Errorf("ordered input: disorder %d, n %d of %d", a.disorder, a.n, len(evs))
	}
	if a.digest != b.digest || a.digest == 0 {
		t.Errorf("same input, digests %x and %x", a.digest, b.digest)
	}
	if a.timedCalls == 0 {
		t.Error("timed tap sampled no Next calls")
	}

	swapped := append([]scenario.Event(nil), evs...)
	i := len(swapped) / 2
	for before(swapped[i], swapped[i+1]) == before(swapped[i+1], swapped[i]) {
		i++ // identical keys cannot be out of order
	}
	swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
	c := drain(t, swapped, nil)
	if c.disorder != 1 {
		t.Errorf("one swapped pair: disorder %d, want 1", c.disorder)
	}
	if c.digest == a.digest {
		t.Error("reordered input kept the digest")
	}
}

func TestStateMachineTapAgreesWithMetricsReplay(t *testing.T) {
	d := dataset(t)
	// Ground truth is valid by construction; damage it so there is
	// something to count: drop every 7th event, which strands later ones.
	for i := range d.Streams {
		s := &d.Streams[i]
		var kept []trace.Event
		for j, ev := range s.Events {
			if j%7 != 3 {
				kept = append(kept, ev)
			}
		}
		s.Events = kept
	}
	want := metrics.Replay(d)
	if want.ViolatingEvents == 0 {
		t.Fatal("damaged dataset has no violations; the test would prove nothing")
	}
	sm := newSMReplay(events.Gen4G)
	drain(t, merged(d), sm)
	if sm.counted != int64(want.CountedEvents) || sm.violations != int64(want.ViolatingEvents) {
		t.Errorf("tap counted %d events, %d violations; metrics.Replay %d, %d",
			sm.counted, sm.violations, want.CountedEvents, want.ViolatingEvents)
	}
	if got := sm.violationRate(); got != want.EventViolationRate() {
		t.Errorf("violation rate %v, want %v", got, want.EventViolationRate())
	}
}
