package replaynet

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/faultnet"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/trace"
)

// seqSource yields n events with 10ms trace spacing, cycling UEs through
// attach/detach pairs.
func seqSource(n int) trace.ArrivalSource { return seqSourceFrom(0, n) }

// seqSourceFrom yields seqSource(n)'s events starting at 0-based index lo —
// the suffix a fast-forwarded scenario stream would deliver to a resumed
// incarnation whose checkpoint covered the first lo events.
func seqSourceFrom(lo, n int) trace.ArrivalSource { return &seqArrivals{i: lo, n: n} }

type seqArrivals struct{ i, n int }

func (s *seqArrivals) NextArrival() (trace.Arrival, bool, error) {
	if s.i >= s.n {
		return trace.Arrival{}, false, nil
	}
	ev := trace.Arrival{
		Time: float64(s.i) * 0.01,
		UE:   uint64((s.i / 2) % 16),
		Type: events.Attach,
	}
	if s.i%2 == 1 {
		ev.Type = events.Detach
	}
	s.i++
	return ev, true, nil
}

// fastOpts returns ClosedOpts tuned for quick, deterministic tests.
func fastOpts(session uint64) ClosedOpts {
	return ClosedOpts{
		SessionID:           session,
		minRTO:              30 * time.Millisecond,
		maxRTO:              500 * time.Millisecond,
		initialRTO:          100 * time.Millisecond,
		reconnectBackoff:    2 * time.Millisecond,
		maxReconnectBackoff: 50 * time.Millisecond,
	}
}

// ruleArrivals cycles 7 UEs through a pattern that exercises every branch of
// the per-UE replay rule: a pre-bootstrap event, the bootstrap, a violation,
// legal steps, and a violation from DEREGISTERED on the next cycle.
type ruleArrivals struct{ i, n int }

func (s *ruleArrivals) NextArrival() (trace.Arrival, bool, error) {
	pattern := []events.Type{events.TAU, events.Attach, events.Attach, events.S1ConnRel, events.ServiceRequest, events.Detach}
	if s.i >= s.n {
		return trace.Arrival{}, false, nil
	}
	ev := trace.Arrival{Time: float64(s.i) * 0.01, UE: uint64(s.i % 7), Type: pattern[(s.i/7)%len(pattern)]}
	s.i++
	return ev, true, nil
}

// TestClosedLoopCleanDelivery replays over a clean network, once into the
// driver's private histogram and once into a caller's RTTSink.
func TestClosedLoopCleanDelivery(t *testing.T) {
	for _, sink := range []*telemetry.Histogram{nil, telemetry.NewHistogram(telemetry.LatencyBuckets)} {
		srv, err := ListenAndServe("127.0.0.1:0", events.Gen4G)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		const n = 500
		opts := fastOpts(101)
		opts.RTTSink = sink
		st, err := ReplayClosed(srv.Addr().String(), events.Gen4G, &ruleArrivals{n: n}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if st.Server.Events != n {
			t.Fatalf("server applied %d events, want %d", st.Server.Events, n)
		}
		if st.Acked != n || st.Sent != n {
			t.Fatalf("sent=%d acked=%d, want %d/%d", st.Sent, st.Acked, n, n)
		}
		if st.Retransmits != 0 || st.Reconnects != 0 {
			t.Fatalf("clean network saw retx=%d reconnects=%d", st.Retransmits, st.Reconnects)
		}
		if st.Server.Duplicates != 0 {
			t.Fatalf("clean network saw %d duplicates", st.Server.Duplicates)
		}
		if st.P99Latency <= 0 || st.MeanLatency <= 0 {
			t.Fatalf("latency accounting empty: mean=%v p99=%v", st.MeanLatency, st.P99Latency)
		}
		if st.FinalCwnd < 2 {
			t.Fatalf("cwnd collapsed to %v", st.FinalCwnd)
		}

		// The deterministic half of ClosedStats — what the server's per-UE
		// rule made of the stream, and the transport counters — as the
		// commit before Machine.Apply and the one histogram reported it
		// (recorded there).
		body, _ := json.Marshal(st.Server)
		h := fnv.New64a()
		fmt.Fprintf(h, "%s %d %d %d %d", body, st.Sent, st.Acked, st.Retransmits, st.Reconnects)
		if got, want := fmt.Sprintf("%016x", h.Sum64()), "2efbfed84f9a6a5f"; got != want {
			t.Fatalf("ClosedStats digest %s, want %s (server %s)", got, want, body)
		}
		// The wall-clock half is read from the one histogram the run
		// recorded into: the caller's, when given.
		if sink != nil && (sink.Count() != st.Acked ||
			st.MeanLatency != time.Duration(sink.Mean()*1e9) ||
			st.P95Latency != time.Duration(sink.Quantile(0.95)*1e9) ||
			st.P99Latency != time.Duration(sink.Quantile(0.99)*1e9)) {
			t.Fatalf("ClosedStats latencies %v/%v/%v over %d acks differ from the RTTSink's (%d samples)",
				st.MeanLatency, st.P95Latency, st.P99Latency, st.Acked, sink.Count())
		}
	}
}

func TestClosedLoopLiveStats(t *testing.T) {
	srv, err := ListenAndServeOpts("127.0.0.1:0", events.Gen4G, ServerOpts{ServiceTime: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var live LiveStats
	opts := fastOpts(102)
	opts.Live = &live
	done := make(chan error, 1)
	go func() {
		_, err := ReplayClosed(srv.Addr().String(), events.Gen4G, seqSource(400), opts)
		done <- err
	}()
	// While the replay runs, the atomics must show live transport state.
	sawInflight := false
	deadline := time.After(10 * time.Second)
	for !sawInflight {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			t.Fatalf("replay finished before live stats showed activity (acked=%d)", live.Acked.Load())
		case <-deadline:
			t.Fatal("timed out")
		case <-time.After(time.Millisecond):
			if live.Sent.Load() > 0 && live.CwndEvents.Load() >= 2 {
				sawInflight = true
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if live.Acked.Load() != 400 {
		t.Fatalf("live acked=%d, want 400", live.Acked.Load())
	}
	if live.SRTTNanos.Load() <= 0 || live.RTONanos.Load() <= 0 {
		t.Fatalf("estimator never published: srtt=%d rto=%d", live.SRTTNanos.Load(), live.RTONanos.Load())
	}
}

// TestClosedLoopResumeProtocol pins the exactly-once resume contract at the
// wire level: a session that reconnects and retransmits already-applied
// sequences sees them acknowledged but counted as duplicates, never
// re-applied.
func TestClosedLoopResumeProtocol(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", events.Gen4G)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	send := func(c *rawClosedConn, lo, hi uint64) {
		t.Helper()
		for seq := lo; seq <= hi; seq++ {
			c.sendSeq(t, seq)
		}
	}

	c := dialRawClosed(t, srv.Addr().String(), 555)
	if got := c.hello(t); got != 0 {
		t.Fatalf("fresh session resumed at %d", got)
	}
	send(c, 1, 5)
	if ack := c.waitAck(t, 5); ack != 5 {
		t.Fatalf("ack=%d, want 5", ack)
	}
	c.close()

	// Reconnect: the resume ACK must report 5; retransmitting 3..8 must
	// apply only 6..8.
	c = dialRawClosed(t, srv.Addr().String(), 555)
	if got := c.hello(t); got != 5 {
		t.Fatalf("resume ack=%d, want 5", got)
	}
	send(c, 3, 8)
	if ack := c.waitAck(t, 8); ack != 8 {
		t.Fatalf("ack=%d, want 8", ack)
	}
	c.close()

	st := srv.Snapshot()
	if st.Events != 8 {
		t.Fatalf("server applied %d events, want exactly 8", st.Events)
	}
	if st.Duplicates != 3 {
		t.Fatalf("duplicates=%d, want 3", st.Duplicates)
	}
}

// TestClosedLoopExactlyOnceUnderFaults is the full fault matrix: every
// fault class on each side of the connection, with the invariant that the
// server applies every event exactly once no matter how many
// reconnect/retransmit cycles the schedule forces.
func TestClosedLoopExactlyOnceUnderFaults(t *testing.T) {
	cases := []struct {
		name           string
		client, server faultnet.Config
	}{
		{name: "client-drop", client: faultnet.Config{Seed: 1, DropProb: 0.03}},
		{name: "client-reset", client: faultnet.Config{Seed: 2, ResetProb: 0.01}},
		{name: "client-partial", client: faultnet.Config{Seed: 3, PartialProb: 0.01}},
		{name: "client-stall", client: faultnet.Config{Seed: 4, StallProb: 0.05, StallDur: 5 * time.Millisecond}},
		{name: "server-drop", server: faultnet.Config{Seed: 5, DropProb: 0.05}},
		{name: "server-reset", server: faultnet.Config{Seed: 6, ResetProb: 0.02}},
		{name: "server-partial", server: faultnet.Config{Seed: 7, PartialProb: 0.02}},
		{name: "server-stall", server: faultnet.Config{Seed: 8, StallProb: 0.05, StallDur: 5 * time.Millisecond}},
		{name: "both-sides-mixed", client: faultnet.Config{Seed: 9, DropProb: 0.02, StallProb: 0.02, StallDur: 2 * time.Millisecond},
			server: faultnet.Config{Seed: 10, DropProb: 0.02, ResetProb: 0.005}},
	}
	for i, tc := range cases {
		tc := tc
		sess := uint64(1000 + i)
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var sopts ServerOpts
			if tc.server.Seed != 0 {
				cfg := tc.server
				sopts.Fault = &cfg
			}
			srv, err := ListenAndServeOpts("127.0.0.1:0", events.Gen4G, sopts)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			opts := fastOpts(sess)
			opts.maxReconnects = 50
			if tc.client.Seed != 0 {
				opts.Dial = faultnet.Dialer(tc.client)
			}
			const n = 300
			st, err := ReplayClosed(srv.Addr().String(), events.Gen4G, seqSource(n), opts)
			if err != nil {
				t.Fatal(err)
			}
			if st.Acked != n {
				t.Fatalf("acked=%d, want %d", st.Acked, n)
			}
			if st.Server.Events != n {
				t.Fatalf("server applied %d events, want exactly %d (loss or duplication)", st.Server.Events, n)
			}
		})
	}
}

// TestSLOSearchStateDeterministic drives the pure controller state machine
// against a synthetic capacity and pins both convergence and the exact rate
// trajectory (same verdicts → same probes).
func TestSLOSearchStateDeterministic(t *testing.T) {
	run := func() (rates []float64, st *sloSearchState) {
		const capacity = 1000.0
		st = newSLOSearchState(SearchOpts{
			SLOP99: 50 * time.Millisecond, InitialRate: 100,
			rampFactor: 2, tolerance: 0.25, maxRounds: 20, WindowEvents: 100, minAchievedFrac: 0.85,
		}.withDefaults())
		for !st.done {
			rates = append(rates, st.rate)
			st.observe(st.rate <= capacity)
		}
		return rates, st
	}
	a, sa := run()
	b, _ := run()
	if len(a) != len(b) {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectory diverged at round %d: %v vs %v", i, a[i], b[i])
		}
	}
	if !sa.converged {
		t.Fatalf("did not converge in %d rounds", sa.rounds)
	}
	if sa.lo < 800 || sa.lo > 1000 {
		t.Fatalf("converged MaxRate %v outside [800,1000] for capacity 1000", sa.lo)
	}
	// The bracket must satisfy the stopping rule.
	if sa.hi/sa.lo > 1.25+1e-9 {
		t.Fatalf("bracket [%v,%v] wider than tolerance", sa.lo, sa.hi)
	}
	// Ramp-down path: a capacity below the initial rate must be found too.
	st := newSLOSearchState(SearchOpts{SLOP99: time.Millisecond, InitialRate: 1000}.withDefaults())
	for !st.done {
		st.observe(st.rate <= 30)
	}
	if st.lo <= 0 || st.lo > 30 {
		t.Fatalf("ramp-down found %v, want within (0,30]", st.lo)
	}
}

// TestSLOSearchEndToEnd runs the controller against a rate-limited
// in-process server and checks it converges to a plausible capacity
// estimate. The assertion band is deliberately broad — scheduling noise
// moves the estimate, the machinery is what's under test.
func TestSLOSearchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	// ServiceTime 500µs → per-connection capacity ≈ 2000 events/s.
	srv, err := ListenAndServeOpts("127.0.0.1:0", events.Gen4G, ServerOpts{ServiceTime: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	res, err := SLOSearch(srv.Addr().String(), events.Gen4G, seqSource(40000), fastOpts(2001), SearchOpts{
		SLOP99:       80 * time.Millisecond,
		InitialRate:  250,
		WindowEvents: 150,
		tolerance:    0.5,
		maxRounds:    10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 2 {
		t.Fatalf("only %d probe rounds", len(res.Rounds))
	}
	if res.MaxRate <= 0 {
		t.Fatal("no sustainable rate found")
	}
	if res.MaxRate < 100 || res.MaxRate > 20000 {
		t.Fatalf("max rate %v implausible for a ~2000 ev/s server", res.MaxRate)
	}
	if res.Transport.Acked == 0 || res.Transport.Server.Events == 0 {
		t.Fatal("transport stats empty")
	}
	if int64(res.Transport.Server.Events) != res.Transport.Acked {
		t.Fatalf("server applied %d but driver acked %d", res.Transport.Server.Events, res.Transport.Acked)
	}
	if math.IsNaN(res.MaxRate) {
		t.Fatal("NaN rate")
	}
}
