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
	"testing"
	"time"

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

// TestPacerTiming checks that a paced drain of T trace-seconds at
// compression c takes about T/c wall seconds — within a generous tolerance
// for loaded CI machines — and that an unpaced drain does not sleep.
func TestPacerTiming(t *testing.T) {
	// 20 events spanning 38 trace-seconds at compression 100 → ~380ms.
	p := NewPacer(context.Background(), evenlySpaced(20, 2), 100)
	start := time.Now()
	n := 0
	for {
		if _, ok := p.Next(); !ok {
			break
		}
		n++
	}
	elapsed := time.Since(start)
	if n != 20 || p.Events() != 20 {
		t.Fatalf("released %d events (counter %d), want 20", n, p.Events())
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if p.Stopped() {
		t.Fatal("exhaustion must not report Stopped")
	}
	// Lower bound is hard (sleeps cannot complete early); upper bound is
	// loose — the schedule is 380ms and we allow 3x for scheduler noise.
	if elapsed < 350*time.Millisecond {
		t.Fatalf("paced drain took %v, want ≥ 350ms", elapsed)
	}
	if elapsed > 1140*time.Millisecond {
		t.Fatalf("paced drain took %v, want ≤ ~1.14s", elapsed)
	}

	// Unpaced (compression 0): released as fast as the source yields.
	p0 := NewPacer(nil, evenlySpaced(1000, 10), 0)
	start = time.Now()
	for {
		if _, ok := p0.Next(); !ok {
			break
		}
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("unpaced drain slept: %v", elapsed)
	}
	if p0.Events() != 1000 {
		t.Fatalf("unpaced counter = %d, want 1000", p0.Events())
	}
}

// TestPacerNeverEarly pins the pacer's one timing promise over randomized
// schedules — bursts of simultaneous events, millisecond gaps, long gaps
// (1–3 trace-seconds at compression 100) — with a consumer that stalls at
// random: every event is released exactly once, in order, and never before
// start + (t-t0)/compression, start being the first release's wall instant.
// A stall only makes the events behind it late. The fixed case is the
// schedule load shedding used to break: a 100 ms stall behind the first of
// eight events at trace 0, then 24 due at +0.5 s.
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
			p := NewPacer(context.Background(), &sliceSource{evs: tr.evs}, tr.c)
			var got []Event
			for {
				e, ok := p.Next()
				if !ok {
					break
				}
				now := time.Now()
				target := p.start.Add(time.Duration((e.Time - tr.evs[0].Time) / tr.c * float64(time.Second)))
				if now.Before(target) {
					t.Fatalf("event %d released %v before its scheduled instant", len(got), target.Sub(now))
				}
				got = append(got, e)
				time.Sleep(tr.stalls[len(got)-1])
			}
			if err := p.Err(); err != nil || p.Stopped() {
				t.Fatalf("Err() = %v, Stopped() = %v after exhaustion", err, p.Stopped())
			}
			if !reflect.DeepEqual(got, tr.evs) || p.Events() != int64(len(tr.evs)) {
				t.Fatalf("released %d events (counter %d), want the %d scheduled, once each and in order", len(got), p.Events(), len(tr.evs))
			}
		})
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

// TestPacerLag checks that a source whose timestamps are already in the
// past (relative to the pace) reports a positive lag.
func TestPacerLag(t *testing.T) {
	// First event anchors the clock; the rest land "behind schedule" only
	// if the consumer is slower than the pace. Force it: compression so
	// high the whole trace is due immediately, then check lag after a
	// consumer-side delay.
	src := evenlySpaced(3, 1000) // 0s, 1000s, 2000s trace time
	p := NewPacer(context.Background(), src, 1e12)
	if _, ok := p.Next(); !ok {
		t.Fatal("first event missing")
	}
	time.Sleep(20 * time.Millisecond) // slow consumer
	if _, ok := p.Next(); !ok {
		t.Fatal("second event missing")
	}
	if lag := p.Lag(); lag < 10*time.Millisecond {
		t.Fatalf("lag = %v, want ≥ 10ms (slow consumer must show up)", lag)
	}
}

// TestPacerCancel checks the clean-drain contract: cancelling mid-stream
// releases the in-flight event, then ends the stream with ok=false,
// Err()==nil and Stopped()==true.
func TestPacerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	// 1000 trace-seconds between events at compression 10 → 100s sleeps:
	// without cancellation this test would hang.
	p := NewPacer(ctx, evenlySpaced(5, 1000), 10)
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
	time.Sleep(20 * time.Millisecond) // let the pacer park in its sleep
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled pacer did not return")
	}
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
		// A bare listener that timestamps EVENT frames as they arrive.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		start := time.Now()
		arrived := make(chan []time.Duration, 1)
		go func() {
			var at []time.Duration
			defer func() { arrived <- at }()
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			for {
				var hdr [5]byte
				if _, err := io.ReadFull(conn, hdr[:]); err != nil {
					return
				}
				if _, err := io.CopyN(io.Discard, conn, int64(binary.BigEndian.Uint32(hdr[1:]))); err != nil {
					return
				}
				switch hdr[0] {
				case 'E':
					at = append(at, time.Since(start))
				case 'S':
					conn.Write([]byte{'R', 0, 0, 0, 2, '{', '}'})
				case 'B':
					return
				}
			}
		}()
		sink, err := NewSink(SinkConfig{Name: "replay", Addr: ln.Addr().String()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sink.Consume(context.Background(), NewPacer(context.Background(), source(), 1)); err != nil {
			t.Fatal(err)
		}
		at := <-arrived
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
