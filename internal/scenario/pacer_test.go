package scenario

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"cptgpt/internal/clock"
	"cptgpt/internal/events"
	"cptgpt/internal/replaynet"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/tracez"
)

// sliceSource is a fixed in-memory EventSource for pacer tests.
type sliceSource struct {
	evs []Event
	i   int
}

func (s *sliceSource) Next() (Event, bool) {
	if s.i >= len(s.evs) {
		return Event{}, false
	}
	e := s.evs[s.i]
	s.i++
	return e, true
}
func (s *sliceSource) Err() error                    { return nil }
func (s *sliceSource) Generation() events.Generation { return events.Gen4G }
func (s *sliceSource) UEID(e Event) string           { return "ue" }

// evenlySpaced builds n events, dt trace-seconds apart.
func evenlySpaced(n int, dt float64) *sliceSource {
	src := &sliceSource{}
	for i := 0; i < n; i++ {
		src.evs = append(src.evs, Event{Time: float64(i) * dt, UE: 1, Seq: uint32(i)})
	}
	return src
}

// epoch is where a clock.Manual starts.
var epoch = time.Unix(0, 0)

// manualPacer wraps src in a Pacer on a fresh manual clock.
func manualPacer(src EventSource, compression float64) (*Pacer, *clock.Manual) {
	p := NewPacer(context.Background(), src, compression)
	m := clock.NewManual()
	p.clk = m
	return p, m
}

// dueAt is the pacer's release instant for an event at trace time t:
// start + (t-t0)/c, in the pacer's own arithmetic.
func dueAt(start time.Time, t, t0, c float64) time.Time {
	return start.Add(time.Duration((t - t0) / c * float64(time.Second)))
}

// drainManual drains p on a goroutine of its own while this one plays the
// clock: when the pacer announces a wait (OnIdle), hook runs first on the
// consumer's goroutine (it may move the clock, as a flush takes time), then
// the clock moves to the wait's end once the pacer's timer is armed. after
// runs on the consumer's goroutine after each release. Either may be nil.
// It returns the released events, the clock at each release and the end of
// every announced wait.
func drainManual(p *Pacer, m *clock.Manual, hook func(until time.Time), after func(i int)) (evs []Event, at, untils []time.Time) {
	idle := make(chan time.Time)
	p.OnIdle(func(until time.Time) {
		if hook != nil {
			hook(until)
		}
		idle <- until
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			e, ok := p.Next()
			if !ok {
				return
			}
			evs, at = append(evs, e), append(at, m.Now())
			if after != nil {
				after(len(evs) - 1)
			}
		}
	}()
	for {
		select {
		case until := <-idle:
			untils = append(untils, until)
			if now := m.Now(); now.Before(until) {
				m.BlockUntil(1)
				m.Advance(until.Sub(now))
			}
		case <-done:
			return evs, at, untils
		}
	}
}

// TestPacerTiming pins the schedule on a manual clock: 20 events 2
// trace-seconds apart at compression 100 are released exactly 20 ms apart,
// each after a wait announced to OnIdle with its release instant; an
// unpaced drain releases everything without a wait.
func TestPacerTiming(t *testing.T) {
	p, m := manualPacer(evenlySpaced(20, 2), 100)
	evs, at, untils := drainManual(p, m, nil, nil)
	if len(evs) != 20 || p.Events() != 20 {
		t.Fatalf("released %d events (counter %d), want 20", len(evs), p.Events())
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if p.Stopped() {
		t.Fatal("exhaustion must not report Stopped")
	}
	for i := range at {
		if want := epoch.Add(time.Duration(i) * 20 * time.Millisecond); !at[i].Equal(want) {
			t.Fatalf("event %d released at %v, want %v", i, at[i].Sub(epoch), want.Sub(epoch))
		}
	}
	if !reflect.DeepEqual(untils, at[1:]) {
		t.Fatalf("OnIdle announced waits ending at %v, want the 19 release instants", untils)
	}

	// Unpaced (compression 0): released as fast as the source yields.
	p0, m0 := manualPacer(evenlySpaced(1000, 10), 0)
	evs, at, untils = drainManual(p0, m0, nil, nil)
	if len(evs) != 1000 || p0.Events() != 1000 || len(untils) != 0 || !at[999].Equal(epoch) {
		t.Fatalf("unpaced drain: %d events (counter %d), %d waits, last at %v", len(evs), p0.Events(), len(untils), at[999].Sub(epoch))
	}
}

// TestPacerNeverEarly pins the pacer's one timing promise over randomized
// schedules — bursts of simultaneous events, millisecond gaps, long gaps
// (1–3 trace-seconds at compression 100) — with a consumer that stalls at
// random, on a manual clock: every event is released exactly once, in
// order, at max(due, ready), where due is start + (t-t0)/compression, start
// the first release's instant, and ready the instant the consumer asked for
// it. A stall only makes the events behind it late, and the pacer announces
// every wait to OnIdle with the due instant it ends at. The fixed case is
// the schedule load shedding used to break: a 100 ms stall behind the
// first of eight events at trace 0, then 24 due at +0.5 s.
func TestPacerNeverEarly(t *testing.T) {
	type trial struct {
		c      float64
		evs    []Event
		stalls map[int]time.Duration // release index → consumer stall after it
	}
	fixed := trial{c: 1, stalls: map[int]time.Duration{0: 100 * time.Millisecond}}
	for i := 0; i < 32; i++ {
		fixed.evs = append(fixed.evs, Event{Time: 0.5 * float64(min(i/8, 1)), UE: 1, Seq: uint32(i)})
	}
	trials := map[string]trial{"stall before a burst": fixed}
	for _, c := range []float64{1, 3, 10, 100} {
		rng := rand.New(rand.NewSource(int64(c)))
		tr := trial{c: c, stalls: map[int]time.Duration{}}
		at := 100 * rng.Float64()
		for i := 0; i < 80; i++ {
			switch r := rng.Float64(); {
			case r < 0.4: // a burst: the previous event's instant
			case r < 0.9:
				at += 0.004 * c * rng.Float64() // up to 4 ms of wall
			default:
				at += (1 + 2*rng.Float64()) * c / 100 // 10–30 ms of wall
			}
			tr.evs = append(tr.evs, Event{Time: at, UE: uint64(rng.Intn(7)), Seq: uint32(i)})
			if rng.Float64() < 0.1 {
				tr.stalls[i] = time.Duration(rng.Int63n(int64(30 * time.Millisecond)))
			}
		}
		trials[fmt.Sprint("compression ", c)] = tr
	}
	for name, tr := range trials {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, m := manualPacer(&sliceSource{evs: tr.evs}, tr.c)
			got, at, untils := drainManual(p, m, nil, func(i int) { m.Advance(tr.stalls[i]) })
			if err := p.Err(); err != nil || p.Stopped() {
				t.Fatalf("Err() = %v, Stopped() = %v after exhaustion", err, p.Stopped())
			}
			if !reflect.DeepEqual(got, tr.evs) || p.Events() != int64(len(tr.evs)) {
				t.Fatalf("released %d events (counter %d), want the %d scheduled, once each and in order", len(got), p.Events(), len(tr.evs))
			}
			var waits []time.Time
			for i, e := range tr.evs {
				due := dueAt(epoch, e.Time, tr.evs[0].Time, tr.c)
				want := due
				if i > 0 {
					if ready := at[i-1].Add(tr.stalls[i-1]); ready.Before(due) {
						waits = append(waits, due)
					} else {
						want = ready
					}
				}
				if !at[i].Equal(want) {
					t.Fatalf("event %d released at %v, want %v (due %v)", i, at[i].Sub(epoch), want.Sub(epoch), due.Sub(epoch))
				}
			}
			if !reflect.DeepEqual(untils, waits) {
				t.Fatalf("OnIdle announced %d waits, want one ending at each of the %d due instants waited for", len(untils), len(waits))
			}
		})
	}
}

// TestPacerOnIdleTime pins what the pacer does with the time its OnIdle
// hook takes: it waits out only what the hook left, so a release lands on
// its due instant whether the hook used part of the wait, all of it or
// more (a hook that overruns makes only its own event late).
func TestPacerOnIdleTime(t *testing.T) {
	for _, share := range []float64{0, 0.5, 1, 1.5} {
		p, m := manualPacer(evenlySpaced(5, 0.01), 1)
		_, at, untils := drainManual(p, m, func(until time.Time) {
			m.Advance(time.Duration(share * float64(until.Sub(m.Now()))))
		}, nil)
		for i := 1; i < len(at); i++ {
			due := untils[i-1]
			want := due
			if share > 1 {
				want = at[i-1].Add(time.Duration(share * float64(due.Sub(at[i-1]))))
			}
			if !at[i].Equal(want) {
				t.Fatalf("hook using %.0f%% of the wait: event %d released at %v, want %v", 100*share, i, at[i].Sub(epoch), want.Sub(epoch))
			}
		}
		if len(untils) != 4 {
			t.Fatalf("hook using %.0f%% of the wait: %d waits announced, want 4", 100*share, len(untils))
		}
	}
}

// TestPacerUnpacedWindows pins the achieved-rate accounting of an unpaced
// run, which reads the clock on the first and then every 64th release
// only: the pacer.window spans still add up to exactly the events
// released, one histogram observation per span — over several windows,
// on a run shorter than one clock interval, and on a cancelled run.
func TestPacerUnpacedWindows(t *testing.T) {
	tracez.Reset()
	tracez.Enable()
	defer func() {
		tracez.Disable()
		tracez.Reset()
	}()
	for _, tc := range []struct {
		name        string
		events      int
		cancelAfter int   // 0 = run to exhaustion
		ageAt       []int // releases after which a second of wall time "passes"
		wantWindows int
	}{
		{"several windows", 1000, 0, []int{1, 300, 640}, 4}, // the last one folded in at end of stream
		{"shorter than one clock interval", 10, 0, nil, 1},
		{"one event", 1, 0, nil, 1},
		{"ends on a clock read", 65, 0, nil, 1},
		{"cancelled", 1000, 100, []int{50}, 2},
	} {
		before := len(tracez.Snapshot(0))
		ctx, cancel := context.WithCancel(context.Background())
		p := NewPacer(ctx, evenlySpaced(tc.events, 1), 0)
		rate := telemetry.NewHistogram(telemetry.RateBuckets)
		p.SetHistograms(nil, rate)
		released := 0
		for {
			if _, ok := p.Next(); !ok {
				break
			}
			released++
			if len(tc.ageAt) > 0 && released == tc.ageAt[0] {
				// Stand in for a slow sink: the open window began a second ago.
				p.winStart = p.winStart.Add(-time.Second)
				tc.ageAt = tc.ageAt[1:]
			}
			if released == tc.cancelAfter {
				cancel()
			}
		}
		cancel()
		want := tc.events
		if tc.cancelAfter > 0 {
			want = tc.cancelAfter
		}
		if released != want || p.Events() != int64(want) {
			t.Fatalf("%s: released %d (counter %d), want %d", tc.name, released, p.Events(), want)
		}
		var windows int
		var items int64
		for _, sp := range tracez.Snapshot(0)[before:] {
			if sp.Stage == tracez.StagePacerWindow {
				windows++
				items += sp.N
			}
		}
		if items != int64(want) {
			t.Fatalf("%s: pacer.window spans hold %d events, %d were released", tc.name, items, want)
		}
		if windows != tc.wantWindows || rate.Count() != int64(windows) {
			t.Fatalf("%s: %d window spans and %d rate observations, want %d of each", tc.name, windows, rate.Count(), tc.wantWindows)
		}
	}
}

// TestPacerLag checks that a consumer slower than the pace shows as lag:
// the whole trace is due at once (compression 1e12), so after the consumer
// takes 20 ms over the first event the second is released 20 ms less its
// 1 ns of schedule behind.
func TestPacerLag(t *testing.T) {
	src := evenlySpaced(3, 1000) // 0s, 1000s, 2000s trace time
	p, m := manualPacer(src, 1e12)
	if _, ok := p.Next(); !ok {
		t.Fatal("first event missing")
	}
	m.Advance(20 * time.Millisecond) // slow consumer
	if _, ok := p.Next(); !ok {
		t.Fatal("second event missing")
	}
	if lag, want := p.Lag(), epoch.Add(20*time.Millisecond).Sub(dueAt(epoch, 1000, 0, 1e12)); lag != want {
		t.Fatalf("lag = %v, want %v (a slow consumer must show up)", lag, want)
	}
}

// TestPacerCancel checks the clean-drain contract: cancelling mid-stream
// releases the in-flight event, then ends the stream with ok=false,
// Err()==nil and Stopped()==true.
func TestPacerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// 1000 trace-seconds between events at compression 10: the manual
	// clock never reaches the second event's release.
	p := NewPacer(ctx, evenlySpaced(5, 1000), 10)
	m := clock.NewManual()
	p.clk = m
	if _, ok := p.Next(); !ok {
		t.Fatal("first event missing")
	}
	done := make(chan struct{})
	var got []bool
	go func() {
		defer close(done)
		for i := 0; i < 2; i++ {
			_, ok := p.Next()
			got = append(got, ok)
		}
	}()
	m.BlockUntil(1) // the pacer is parked in its wait
	cancel()
	<-done
	// The event the pacer was holding is released, then the stream ends.
	if len(got) != 2 || !got[0] || got[1] {
		t.Fatalf("post-cancel Next results = %v, want [true false]", got)
	}
	if err := p.Err(); err != nil {
		t.Fatalf("cancellation must not surface as Err: %v", err)
	}
	if !p.Stopped() {
		t.Fatal("cancelled pacer must report Stopped")
	}
	if p.Events() != 2 {
		t.Fatalf("events = %d, want 2", p.Events())
	}
	if !m.Now().Equal(epoch) {
		t.Fatalf("the clock moved to %v", m.Now().Sub(epoch))
	}
}

// TestOpenContextCancelled checks that a pre-cancelled context aborts the
// generation phase with the context's error and leaves no spill directory.
func TestOpenContextCancelled(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tmp := t.TempDir()
	if _, err := spec.OpenContext(ctx, RunOpts{UEs: 200, TempDir: tmp}); err != context.Canceled {
		t.Fatalf("OpenContext on cancelled ctx = %v, want context.Canceled", err)
	}
	ents, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("cancelled OpenContext left spill state: %v", ents)
	}
}

// wireListener is a bare replay server that timestamps event frames as they
// arrive: EVENT frames (open loop) or SEVENT frames (closed loop, each
// acknowledged at once). The arrival times come out on the channel when the
// client says BYE or hangs up.
func wireListener(t *testing.T) (addr string, arrived <-chan []time.Time) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	out := make(chan []time.Time, 1)
	go func() {
		var at []time.Time
		defer func() { out <- at }()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		ack := func(seq uint64) {
			frame := []byte{'A', 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0}
			binary.BigEndian.PutUint64(frame[5:], seq)
			conn.Write(frame)
		}
		for {
			var hdr [5]byte
			if _, err := io.ReadFull(conn, hdr[:]); err != nil {
				return
			}
			payload := make([]byte, binary.BigEndian.Uint32(hdr[1:]))
			if _, err := io.ReadFull(conn, payload); err != nil {
				return
			}
			switch hdr[0] {
			case 'E':
				at = append(at, time.Now())
			case 'Q':
				at = append(at, time.Now())
				ack(binary.BigEndian.Uint64(payload))
			case 'C':
				ack(0) // a fresh session: nothing applied yet
			case 'S':
				conn.Write([]byte{'R', 0, 0, 0, 2, '{', '}'})
			case 'B':
				return
			}
		}
	}()
	return ln.Addr().String(), out
}

// TestPacedReplayKeepsScheduleOnTheWire is the regression test for the wait
// hidden inside Next: a Pacer upstream of a replay driver sleeps where the
// driver cannot see it, so whatever the driver has buffered must go out
// before the sleep (OnIdle), not after it. Events at trace 0, 1 ms and 2 s
// at compression 1: the first two must be on the wire (open loop) or
// acknowledged (closed loop) long before the third is due.
func TestPacedReplayKeepsScheduleOnTheWire(t *testing.T) {
	source := func() *sliceSource {
		return &sliceSource{evs: []Event{
			{Time: 0, UE: 1, Type: events.Attach},
			{Time: 0.001, UE: 2, Type: events.Attach, Seq: 1},
			{Time: 2, UE: 1, Type: events.Detach, Seq: 2},
		}}
	}

	t.Run("open-loop", func(t *testing.T) {
		t.Parallel()
		addr, arrived := wireListener(t)
		start := time.Now()
		sink, err := NewSink(SinkConfig{Name: "replay", Addr: addr})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sink.Consume(context.Background(), NewPacer(context.Background(), source(), 1)); err != nil {
			t.Fatal(err)
		}
		var at []time.Duration
		for _, a := range <-arrived {
			at = append(at, a.Sub(start))
		}
		if len(at) != 3 || at[0] > 200*time.Millisecond || at[1] > 200*time.Millisecond || at[2] < 1900*time.Millisecond {
			t.Fatalf("EVENT frames reached the wire at %v, want two within 200ms and the third at ≈ 2s", at)
		}
	})

	t.Run("closed-loop", func(t *testing.T) {
		t.Parallel()
		srv, err := replaynet.ListenAndServe("127.0.0.1:0", events.Gen4G)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		sink, err := NewSink(SinkConfig{Name: "replay", Addr: srv.Addr().String(), ClosedLoop: true})
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		done := make(chan error, 1)
		go func() {
			_, err := sink.Consume(context.Background(), NewPacer(context.Background(), source(), 1))
			done <- err
		}()
		acked := func() int64 {
			_, st := sink.(LiveSink).Stats()
			return st.Acked
		}
		for acked() < 2 {
			if time.Since(start) > time.Second {
				t.Fatalf("%d transactions acknowledged 1s in, want the two due by then", acked())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if wall := time.Since(start); acked() != 3 || wall < 1900*time.Millisecond {
			t.Fatalf("finished after %v with %d acknowledged, want all 3 at ≈ 2s", wall, acked())
		}
	})
}

// oversleeps samples how late this process's timers fire, beside a
// wall-clock check: a goroutine sleeps 1 ms at a time until stop and
// records when each sleep woke and by how much it overshot.
type oversleeps struct {
	woke []time.Time
	over []time.Duration
	quit chan struct{}
	done chan struct{}
}

func sampleOversleeps() *oversleeps {
	o := &oversleeps{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(o.done)
		for {
			select {
			case <-o.quit:
				return
			default:
			}
			start := time.Now()
			time.Sleep(time.Millisecond)
			now := time.Now()
			o.woke, o.over = append(o.woke, now), append(o.over, now.Sub(start)-time.Millisecond)
		}
	}()
	return o
}

func (o *oversleeps) stop() {
	close(o.quit)
	<-o.done
}

// worst is the largest overshoot among the sleeps that woke in [from, to].
func (o *oversleeps) worst(from, to time.Time) time.Duration {
	var w time.Duration
	for i, at := range o.woke {
		if !at.Before(from) && !at.After(to) {
			w = max(w, o.over[i])
		}
	}
	return w
}

// TestPacedReplayWireTiming is a wall-clock smoke test of the schedule
// where a load test's target sees it: a bare listener timestamps the event
// frames each replay driver writes behind a Pacer at compression 1, on a
// dense (5 ms) and a sparse (50 ms) schedule. A frame's due instant is the
// first frame's arrival plus its trace offset. What the machine's load
// adds is measured beside the session, as the overshoot of 1 ms timer
// sleeps, and allowed for: the median inter-arrival must be within ±50 %
// of the gap, and at most 10 % of frames may arrive further from their due
// instant than 10 ms plus the worst overshoot sampled between the first
// frame and them. The exact schedule is pinned on a manual clock by
// TestPacerNeverEarly (release instants and OnIdle) and replaynet's
// TestIdleFlushesOnEntry. The four sessions run one after another: run in
// parallel they compete for the cores.
func TestPacedReplayWireTiming(t *testing.T) {
	for _, closed := range []bool{false, true} {
		for _, sched := range []struct {
			name string
			gap  float64 // trace (= wall) seconds between events
			n    int
		}{{"dense", 0.005, 100}, {"sparse", 0.05, 20}} {
			t.Run(fmt.Sprintf("closed=%v/%s", closed, sched.name), func(t *testing.T) {
				src := &sliceSource{}
				for i := 0; i < sched.n; i++ {
					src.evs = append(src.evs, Event{Time: float64(i) * sched.gap, UE: uint64(i % 8), Type: events.Attach, Seq: uint32(i)})
				}
				addr, arrived := wireListener(t)
				sink, err := NewSink(SinkConfig{Name: "replay", Addr: addr, ClosedLoop: closed})
				if err != nil {
					t.Fatal(err)
				}
				load := sampleOversleeps()
				_, err = sink.Consume(context.Background(), NewPacer(context.Background(), src, 1))
				load.stop()
				if err != nil {
					t.Fatal(err)
				}
				at := <-arrived
				if len(at) != sched.n {
					t.Fatalf("%d event frames arrived, want %d", len(at), sched.n)
				}
				const margin = 20 * time.Millisecond
				gaps := make([]float64, 0, len(at)-1)
				late := 0
				for i, a := range at {
					if i > 0 {
						gaps = append(gaps, a.Sub(at[i-1]).Seconds())
					}
					due := at[0].Add(time.Duration(src.evs[i].Time * float64(time.Second)))
					bound := 10*time.Millisecond + load.worst(at[0].Add(-margin), a.Add(margin))
					if d := a.Sub(due); d > bound || d < -bound {
						late++
					}
				}
				sort.Float64s(gaps)
				slack := load.worst(at[0].Add(-margin), at[len(at)-1].Add(margin)).Seconds()
				if med := gaps[len(gaps)/2]; med < 0.5*sched.gap-slack || med > 1.5*sched.gap+slack {
					t.Errorf("median inter-arrival %.2f ms, want %.0f ms ± 50 %% (± %.2f ms of measured oversleep)", 1e3*med, 1e3*sched.gap, 1e3*slack)
				}
				if late > len(at)/10 {
					t.Errorf("%d of %d frames arrived more than 10 ms plus the sampled oversleep from their due instant, want ≤ 10 %%", late, len(at))
				}
			})
		}
	}
}

// TestPacedClosedLoopLatency pins the closed-loop driver's ACK accounting
// behind a Pacer: every wait retires the ACKs that arrive during it, so a
// transaction's latency is its own send→ACK time on loopback, not the time
// until the window next fills. Compression 1, gaps of 1, 5 and 20 ms, half
// a second each: the mean must stay within 5 ms.
func TestPacedClosedLoopLatency(t *testing.T) {
	for _, gapMs := range []int{1, 5, 20} {
		t.Run(fmt.Sprintf("gap=%dms", gapMs), func(t *testing.T) {
			t.Parallel()
			srv, err := replaynet.ListenAndServe("127.0.0.1:0", events.Gen4G)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			src := &sliceSource{}
			for i := 0; i < 500/gapMs; i++ {
				src.evs = append(src.evs, Event{Time: float64(i*gapMs) / 1e3, UE: uint64(i % 8), Type: events.Attach, Seq: uint32(i)})
			}
			sink, err := NewSink(SinkConfig{Name: "replay", Addr: srv.Addr().String(), ClosedLoop: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := sink.Consume(context.Background(), NewPacer(context.Background(), src, 1))
			if err != nil {
				t.Fatal(err)
			}
			st := replaynet.ClosedStats(res.(closedResult))
			if st.Acked != int64(len(src.evs)) {
				t.Fatalf("acked %d of %d", st.Acked, len(src.evs))
			}
			if st.MeanLatency > 5*time.Millisecond {
				t.Fatalf("mean ACK latency %v (p99 %v), want ≤ 5ms", st.MeanLatency, st.P99Latency)
			}
		})
	}
}
