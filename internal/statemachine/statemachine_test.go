package statemachine

import (
	"reflect"
	"testing"
	"testing/quick"

	"cptgpt/internal/events"
)

func TestTopMapping(t *testing.T) {
	cases := map[State]TopState{
		Deregistered: TopDeregistered,
		SrvReqS:      TopConnected,
		HoS:          TopConnected,
		TauSConn:     TopConnected,
		S1RelS1:      TopIdle,
		S1RelS2:      TopIdle,
		TauSIdle:     TopIdle,
		CmIdle:       TopIdle,
	}
	for s, want := range cases {
		if got := Top(s); got != want {
			t.Fatalf("Top(%v) = %v, want %v", s, got, want)
		}
	}
}

// TestFigure1a4G encodes the full 4G transition table of Figure 1a and
// checks Step against it exhaustively.
func TestFigure1a4G(t *testing.T) {
	m := New(events.Gen4G)
	type tr struct {
		from State
		ev   events.Type
		to   State
	}
	valid := []tr{
		{Deregistered, events.Attach, SrvReqS},

		{SrvReqS, events.S1ConnRel, S1RelS1},
		{SrvReqS, events.Handover, HoS},
		{SrvReqS, events.TAU, TauSConn},
		{SrvReqS, events.Detach, Deregistered},

		{HoS, events.S1ConnRel, S1RelS2},
		{HoS, events.Handover, HoS},
		{HoS, events.TAU, TauSConn},
		{HoS, events.Detach, Deregistered},

		{TauSConn, events.S1ConnRel, S1RelS2},
		{TauSConn, events.Handover, HoS},
		{TauSConn, events.TAU, TauSConn},
		{TauSConn, events.Detach, Deregistered},

		{S1RelS1, events.ServiceRequest, SrvReqS},
		{S1RelS1, events.TAU, TauSIdle},
		{S1RelS1, events.Detach, Deregistered},

		{S1RelS2, events.ServiceRequest, SrvReqS},
		{S1RelS2, events.TAU, TauSIdle},
		{S1RelS2, events.Detach, Deregistered},

		{TauSIdle, events.ServiceRequest, SrvReqS},
		{TauSIdle, events.TAU, TauSIdle},
		{TauSIdle, events.Detach, Deregistered},
	}
	validSet := make(map[[2]int]State)
	for _, v := range valid {
		got, ok := m.Step(v.from, v.ev)
		if !ok || got != v.to {
			t.Fatalf("Step(%v, %v) = %v, %v; want %v, true", v.from, v.ev, got, ok, v.to)
		}
		validSet[[2]int{int(v.from), int(v.ev)}] = v.to
	}
	// Everything not listed is a violation, and the state must hold.
	for _, s := range m.States() {
		for _, e := range events.Vocabulary(events.Gen4G) {
			if _, ok := validSet[[2]int{int(s), int(e)}]; ok {
				continue
			}
			got, ok := m.Step(s, e)
			if ok {
				t.Fatalf("Step(%v, %v) unexpectedly valid", s, e)
			}
			if got != s {
				t.Fatalf("violating Step(%v, %v) moved to %v; must hold state", s, e, got)
			}
		}
	}
}

// TestTable3ViolationsAreViolations checks the paper's top NetShare
// violation pairs are indeed invalid in our machine.
func TestTable3ViolationsAreViolations(t *testing.T) {
	m := New(events.Gen4G)
	for _, s := range []State{S1RelS1, S1RelS2} {
		if _, ok := m.Step(s, events.S1ConnRel); ok {
			t.Fatalf("(%v, S1_CONN_REL) must violate (Table 3)", s)
		}
		if _, ok := m.Step(s, events.Handover); ok {
			t.Fatalf("(%v, HO) must violate (Table 3)", s)
		}
	}
	for _, s := range []State{SrvReqS, HoS, TauSConn} {
		if _, ok := m.Step(s, events.ServiceRequest); ok {
			t.Fatalf("(CONNECTED sub-state %v, SRV_REQ) must violate (Table 3)", s)
		}
	}
}

func TestFigure1b5G(t *testing.T) {
	m := New(events.Gen5G)
	steps := []struct {
		from State
		ev   events.Type
		to   State
		ok   bool
	}{
		{Deregistered, events.Register, SrvReqS, true},
		{SrvReqS, events.ANRel, CmIdle, true},
		{SrvReqS, events.Handover, HoS, true},
		{HoS, events.Handover, HoS, true},
		{HoS, events.ANRel, CmIdle, true},
		{CmIdle, events.ServiceRequest, SrvReqS, true},
		{CmIdle, events.Deregister, Deregistered, true},
		{SrvReqS, events.Deregister, Deregistered, true},
		// Violations:
		{CmIdle, events.ANRel, CmIdle, false},
		{CmIdle, events.Handover, CmIdle, false},
		{SrvReqS, events.ServiceRequest, SrvReqS, false},
		{Deregistered, events.ServiceRequest, Deregistered, false},
		// TAU does not exist in 5G (Table 1).
		{SrvReqS, events.TAU, SrvReqS, false},
	}
	for _, tc := range steps {
		got, ok := m.Step(tc.from, tc.ev)
		if ok != tc.ok || got != tc.to {
			t.Fatalf("5G Step(%v, %v) = %v, %v; want %v, %v", tc.from, tc.ev, got, ok, tc.to, tc.ok)
		}
	}
}

func TestBootstrapDeterministicDestinations(t *testing.T) {
	m := New(events.Gen4G)
	for _, tc := range []struct {
		ev   events.Type
		st   State
		want bool
	}{
		{events.Attach, SrvReqS, true},
		{events.Detach, Deregistered, true},
		{events.ServiceRequest, SrvReqS, true},
		{events.Handover, HoS, true},
		{events.TAU, Deregistered, false},       // ambiguous: idle or connected
		{events.S1ConnRel, Deregistered, false}, // ambiguous sub-state
	} {
		st, ok := m.Bootstrap(tc.ev)
		if ok != tc.want {
			t.Fatalf("Bootstrap(%v) ok = %v, want %v", tc.ev, ok, tc.want)
		}
		if ok && st != tc.st {
			t.Fatalf("Bootstrap(%v) = %v, want %v", tc.ev, st, tc.st)
		}
	}
}

// tallyStream feeds evs, stamped ts, to a fresh Tally as one UE and to
// Machine.Apply by hand — the way the MCN simulator and the replay server
// consume a UE's events — and holds the two to one account: the same events
// admitted unchecked (a prefix, before the bootstrap, not counted), the same
// ones refused (counted, leaving the UE as it was), and the same final
// state. It returns the tally and the indices of the refused events.
func tallyStream(t *testing.T, m Machine, evs []events.Type, ts []float64) (*Tally, []int) {
	t.Helper()
	const ue = 7
	tl := NewTally(m)
	var u UE
	var refused []int
	unchecked := 0
	for i, e := range evs {
		before, counted := u, tl.CountedEvents
		ok := m.Apply(&u, e)
		if got := tl.Observe(ue, e, ts[i]); got != ok {
			t.Fatalf("event %d (%v): Observe %v, Apply %v", i, e, got, ok)
		}
		switch {
		case !ok && u != before:
			t.Fatalf("event %d (%v) refused but moved the UE %+v → %+v", i, e, before, u)
		case !ok:
			refused = append(refused, i)
		case !u.Boot:
			if u != (UE{}) {
				t.Fatalf("event %d (%v) precedes the bootstrap but left %+v", i, e, u)
			}
			if i != unchecked {
				t.Fatalf("event %d (%v) admitted unchecked after the bootstrap", i, e)
			}
			unchecked++
			if tl.CountedEvents != counted {
				t.Fatalf("event %d (%v) precedes the bootstrap but was counted", i, e)
			}
			continue
		}
		if tl.CountedEvents != counted+1 {
			t.Fatalf("event %d (%v) follows the bootstrap but was not counted", i, e)
		}
	}
	r := tl.lookup(ue)
	if got := (UE{State: State(r.state), Boot: r.boot}); got != u {
		t.Fatalf("Apply ended at %+v, the tally at %+v", u, got)
	}
	if tl.UEs != 1 || tl.Events != len(evs) || tl.CountedEvents != len(evs)-unchecked ||
		tl.ViolatingEvents != len(refused) {
		t.Fatalf("tally %+v of %d events, %d unchecked, %d refused", tl, len(evs), unchecked, len(refused))
	}
	if want := min(len(refused), 1); tl.ViolatedUEs != want {
		t.Fatalf("%d violated UEs, want %d", tl.ViolatedUEs, want)
	}
	return tl, refused
}

func TestReplayCleanStream(t *testing.T) {
	m := New(events.Gen4G)
	evs := []events.Type{
		events.Attach,         // t=0, CONNECTED
		events.Handover,       // t=5
		events.TAU,            // t=6
		events.S1ConnRel,      // t=10, IDLE (CONNECTED sojourn = 10)
		events.TAU,            // t=100
		events.ServiceRequest, // t=200, CONNECTED (IDLE sojourn = 190)
		events.S1ConnRel,      // t=230, IDLE (CONNECTED sojourn = 30)
	}
	ts := []float64{0, 5, 6, 10, 100, 200, 230}
	tl, refused := tallyStream(t, m, evs, ts)
	if len(refused) != 0 || len(tl.ByStateEvent) != 0 {
		t.Fatalf("clean stream reported violations: %v %v", refused, tl.ByStateEvent)
	}
	if tl.CountedEvents != len(evs) {
		t.Fatalf("counted %d", tl.CountedEvents)
	}
	if got := tl.MeanSojourns(TopConnected); len(got) != 1 || got[0] != 20 {
		t.Fatalf("connected sojourn means %v, want [20] (visits of 10 and 30)", got)
	}
	if got := tl.MeanSojourns(TopIdle); len(got) != 1 || got[0] != 190 {
		t.Fatalf("idle sojourn means %v, want [190]", got)
	}
	if tl.MeanSojourns(TopDeregistered) != nil {
		t.Fatal("DEREGISTERED has no sojourns")
	}
	if tl.Connected != 0 || tl.PeakConnected != 1 {
		t.Fatalf("connected %d peak %d, want 0 and 1 (the UE ends IDLE)", tl.Connected, tl.PeakConnected)
	}
}

func TestReplayViolationHoldsState(t *testing.T) {
	m := New(events.Gen4G)
	evs := []events.Type{
		events.ServiceRequest, // bootstrap → SrvReqS
		events.ServiceRequest, // violation (already connected)
		events.S1ConnRel,      // still valid from SrvReqS
	}
	tl, refused := tallyStream(t, m, evs, []float64{0, 1, 2})
	if len(refused) != 1 || refused[0] != 1 {
		t.Fatalf("refused %v, want [1]", refused)
	}
	if want := map[StateEvent]int{{SrvReqS, events.ServiceRequest}: 1}; !reflect.DeepEqual(tl.ByStateEvent, want) {
		t.Fatalf("violations %v, want %v", tl.ByStateEvent, want)
	}
	if tl.Connected != 0 {
		t.Fatal("the machine must hold state through violations and end IDLE")
	}
}

func TestReplaySkipsPreBootstrapEvents(t *testing.T) {
	m := New(events.Gen4G)
	evs := []events.Type{events.TAU, events.TAU, events.ServiceRequest, events.S1ConnRel}
	tl, refused := tallyStream(t, m, evs, []float64{0, 10, 20, 30})
	if tl.CountedEvents != 2 {
		t.Fatalf("counted %d, want 2 (TAU is not deterministic)", tl.CountedEvents)
	}
	if len(refused) != 0 {
		t.Fatal("no violations expected after bootstrap")
	}
	if got := tl.MeanSojourns(TopConnected); len(got) != 1 || got[0] != 10 {
		t.Fatalf("connected sojourn means %v, want [10]: the visit starts at the bootstrap", got)
	}
}

func TestReplayUnbootstrappableStream(t *testing.T) {
	m := New(events.Gen4G)
	tl, _ := tallyStream(t, m, []events.Type{events.TAU, events.TAU}, []float64{0, 1})
	if tl.CountedEvents != 0 || tl.Events != 2 {
		t.Fatalf("unexpected tally %+v", tl)
	}
}

func TestAggregateReplay(t *testing.T) {
	m := New(events.Gen4G)
	tl := NewTally(m)
	// UE 1 is clean; UE 2 violates twice; their events interleave.
	tl.Observe(1, events.Attach, 0)
	tl.Observe(2, events.ServiceRequest, 0)
	tl.Observe(2, events.ServiceRequest, 1)
	tl.Observe(1, events.S1ConnRel, 5)
	tl.Observe(2, events.ServiceRequest, 6)
	tl.Observe(1, events.ServiceRequest, 50)
	if tl.UEs != 2 || tl.ViolatedUEs != 1 {
		t.Fatalf("UEs %d violated %d", tl.UEs, tl.ViolatedUEs)
	}
	if tl.StreamViolationRate() != 0.5 || tl.EventViolationRate() != 2.0/6 {
		t.Fatalf("stream violation rate %v, event violation rate %v", tl.StreamViolationRate(), tl.EventViolationRate())
	}
	keys, shares := tl.TopViolations(5)
	if len(keys) != 1 || keys[0] != (StateEvent{SrvReqS, events.ServiceRequest}) || shares[0] != 2.0/6 {
		t.Fatalf("top violations %v %v", keys, shares)
	}
	if got := tl.MeanSojourns(TopConnected); len(got) != 1 || got[0] != 5 {
		t.Fatalf("per-UE connected means %v, want [5]", got)
	}
	if tl.Connected != 2 || tl.PeakConnected != 2 {
		t.Fatalf("connected %d peak %d, want 2 and 2", tl.Connected, tl.PeakConnected)
	}
}

// TopViolations orders by count, most first, and breaks ties by state and
// then by event, whatever order the map yields its pairs in.
func TestTopViolationsOrder(t *testing.T) {
	tl := NewTally(New(events.Gen4G))
	tl.CountedEvents = 100
	tl.ByStateEvent = map[StateEvent]int{
		{S1RelS2, events.Handover}:       3,
		{S1RelS1, events.S1ConnRel}:      3,
		{S1RelS1, events.Handover}:       3,
		{SrvReqS, events.ServiceRequest}: 9,
		{HoS, events.ServiceRequest}:     1,
	}
	want := []StateEvent{
		{SrvReqS, events.ServiceRequest},
		{S1RelS1, events.S1ConnRel},
		{S1RelS1, events.Handover},
		{S1RelS2, events.Handover},
	}
	for range 20 {
		keys, shares := tl.TopViolations(4)
		if !reflect.DeepEqual(keys, want) {
			t.Fatalf("top violations %v, want %v", keys, want)
		}
		if !reflect.DeepEqual(shares, []float64{0.09, 0.03, 0.03, 0.03}) {
			t.Fatalf("shares %v", shares)
		}
	}
	if keys, _ := tl.TopViolations(10); len(keys) != 5 {
		t.Fatalf("TopViolations(10) of 5 pairs gave %d", len(keys))
	}
}

func TestValidEventsMatchesStep(t *testing.T) {
	for _, g := range []events.Generation{events.Gen4G, events.Gen5G} {
		m := New(g)
		for _, s := range m.States() {
			valid := map[events.Type]bool{}
			for _, e := range m.ValidEvents(s) {
				valid[e] = true
			}
			for _, e := range events.Vocabulary(g) {
				_, ok := m.Step(s, e)
				if ok != valid[e] {
					t.Fatalf("%v ValidEvents and Step disagree on (%v, %v)", g, s, e)
				}
			}
		}
	}
}

// Property: from any reachable state, applying any event sequence keeps the
// machine in a reachable, valid state (total function, never panics).
func TestStepTotalityProperty(t *testing.T) {
	m := New(events.Gen4G)
	f := func(raw []uint8) bool {
		s := m.Initial()
		for _, r := range raw {
			e := events.Vocabulary(events.Gen4G)[int(r)%6]
			s, _ = m.Step(s, e)
			if !s.Valid() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a sequence built by always choosing a valid event never
// produces a violation in a Tally.
func TestValidWalksReplayCleanProperty(t *testing.T) {
	m := New(events.Gen4G)
	f := func(seed uint64, n uint8) bool {
		s := SrvReqS // post-ATCH
		evs := []events.Type{events.Attach}
		ts := []float64{0}
		x := seed
		for i := 0; i < int(n%40)+1; i++ {
			choices := m.ValidEvents(s)
			x = x*6364136223846793005 + 1442695040888963407
			e := choices[int(x>>33)%len(choices)]
			evs = append(evs, e)
			ts = append(ts, float64(len(ts)))
			s, _ = m.Step(s, e)
		}
		tl, _ := tallyStream(t, m, evs, ts)
		return tl.ViolatingEvents == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
