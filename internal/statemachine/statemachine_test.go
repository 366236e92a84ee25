package statemachine

import (
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

// checkApply feeds evs to Machine.Apply one at a time — the way the MCN
// simulator and the replay server consume a UE's events — and holds it to
// Replay's account r of the same stream: the same events admitted unchecked
// before the bootstrap, the same ones refused after it, a refusal leaving
// the UE as it was, and the same final state.
func checkApply(t *testing.T, m Machine, evs []events.Type, r ReplayResult) {
	t.Helper()
	var u UE
	var unchecked, refused []int
	for i, e := range evs {
		before := u
		ok := m.Apply(&u, e)
		switch {
		case !ok && u != before:
			t.Fatalf("event %d (%v) refused but moved the UE %+v → %+v", i, e, before, u)
		case !ok:
			refused = append(refused, i)
		case !u.Boot:
			unchecked = append(unchecked, i)
			if u != (UE{}) {
				t.Fatalf("event %d (%v) precedes the bootstrap but left %+v", i, e, u)
			}
		}
	}
	if len(unchecked) != r.Skipped || (r.Skipped > 0 && unchecked[r.Skipped-1] != r.Skipped-1) {
		t.Fatalf("Apply admitted %v unchecked, Replay skipped the first %d", unchecked, r.Skipped)
	}
	if len(refused) != len(r.Violations) {
		t.Fatalf("Apply refused %v, Replay found %+v", refused, r.Violations)
	}
	for k, v := range r.Violations {
		if refused[k] != v.Index {
			t.Fatalf("Apply refused %v, Replay found %+v", refused, r.Violations)
		}
	}
	if u.Boot != r.Bootstrapped || u.State != r.Final {
		t.Fatalf("Apply ended at %+v, Replay at state %v bootstrapped=%v", u, r.Final, r.Bootstrapped)
	}
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
	r := Replay(m, evs, ts)
	checkApply(t, m, evs, r)
	if r.Violated() {
		t.Fatalf("clean stream reported violations: %+v", r.Violations)
	}
	if r.Counted != len(evs) || r.Skipped != 0 {
		t.Fatalf("counted %d skipped %d", r.Counted, r.Skipped)
	}
	if len(r.SojournConnected) != 2 || r.SojournConnected[0] != 10 || r.SojournConnected[1] != 30 {
		t.Fatalf("connected sojourns %v, want [10 30]", r.SojournConnected)
	}
	if len(r.SojournIdle) != 1 || r.SojournIdle[0] != 190 {
		t.Fatalf("idle sojourns %v, want [190]", r.SojournIdle)
	}
	if Top(r.Final) != TopIdle {
		t.Fatalf("final state %v, want IDLE", r.Final)
	}
}

func TestReplayViolationHoldsState(t *testing.T) {
	m := New(events.Gen4G)
	evs := []events.Type{
		events.ServiceRequest, // bootstrap → SrvReqS
		events.ServiceRequest, // violation (already connected)
		events.S1ConnRel,      // still valid from SrvReqS
	}
	ts := []float64{0, 1, 2}
	r := Replay(m, evs, ts)
	checkApply(t, m, evs, r)
	if len(r.Violations) != 1 {
		t.Fatalf("violations %v, want exactly 1", r.Violations)
	}
	v := r.Violations[0]
	if v.Index != 1 || v.State != SrvReqS || v.Event != events.ServiceRequest {
		t.Fatalf("violation %+v", v)
	}
	if Top(r.Final) != TopIdle {
		t.Fatalf("final %v: the machine must hold state through violations", r.Final)
	}
}

func TestReplaySkipsPreBootstrapEvents(t *testing.T) {
	m := New(events.Gen4G)
	evs := []events.Type{events.TAU, events.TAU, events.ServiceRequest, events.S1ConnRel}
	ts := []float64{0, 10, 20, 30}
	r := Replay(m, evs, ts)
	checkApply(t, m, evs, r)
	if r.Skipped != 2 {
		t.Fatalf("skipped %d, want 2 (TAU is not deterministic)", r.Skipped)
	}
	if r.Counted != 2 {
		t.Fatalf("counted %d, want 2", r.Counted)
	}
	if r.Violated() {
		t.Fatal("no violations expected after bootstrap")
	}
}

func TestReplayUnbootstrappableStream(t *testing.T) {
	m := New(events.Gen4G)
	evs := []events.Type{events.TAU, events.TAU}
	r := Replay(m, evs, []float64{0, 1})
	checkApply(t, m, evs, r)
	if r.Bootstrapped || r.Counted != 0 || r.Skipped != 2 {
		t.Fatalf("unexpected result %+v", r)
	}
}

func TestAggregateReplay(t *testing.T) {
	m := New(events.Gen4G)
	agg := NewAggregateReplay()
	clean := Replay(m,
		[]events.Type{events.Attach, events.S1ConnRel, events.ServiceRequest},
		[]float64{0, 5, 50})
	dirty := Replay(m,
		[]events.Type{events.ServiceRequest, events.ServiceRequest},
		[]float64{0, 1})
	agg.Add(&clean)
	agg.Add(&dirty)
	if agg.Streams != 2 || agg.ViolatedStreams != 1 {
		t.Fatalf("streams %d violated %d", agg.Streams, agg.ViolatedStreams)
	}
	if agg.StreamViolationRate() != 0.5 {
		t.Fatalf("stream violation rate %v", agg.StreamViolationRate())
	}
	if agg.EventViolationRate() <= 0 {
		t.Fatal("event violation rate should be positive")
	}
	keys, shares := agg.TopViolations(5)
	if len(keys) != 1 || keys[0].Event != events.ServiceRequest {
		t.Fatalf("top violations %v %v", keys, shares)
	}
	if len(agg.MeanConnectedPerUE) != 1 {
		t.Fatalf("per-UE connected means %v", agg.MeanConnectedPerUE)
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
// produces a violation under Replay.
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
		r := Replay(m, evs, ts)
		checkApply(t, m, evs, r)
		return !r.Violated()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
