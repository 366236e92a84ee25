package replaynet

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"cptgpt/internal/clock"
	"cptgpt/internal/events"
	"cptgpt/internal/statemachine"
	"cptgpt/internal/telemetry"
)

// The timing contracts of the closed-loop driver and the server, on a
// manual clock: every wait ends exactly where the contract puts it, with
// no sleep and no tolerance.

var epoch = time.Unix(0, 0)

// manualSession is a closedSession on m, writing to w, ready for idle.
func manualSession(m *clock.Manual, w *bytes.Buffer) *closedSession {
	s := &closedSession{
		o:         ClosedOpts{clock: m},
		bw:        bufio.NewWriter(w),
		notify:    make(chan struct{}, 1),
		timer:     m.NewTimer(time.Hour),
		cwnd:      initialCwnd,
		slowStart: true,
		rto:       time.Second,
		hist:      telemetry.NewHistogram(telemetry.LatencyBuckets),
	}
	s.timer.Stop()
	return s
}

// TestIdleFlushesOnEntry pins the first thing a paced source's wait does
// through the driver's idle hook: everything buffered goes onto the wire
// before the wait, so a paced event is not held a wait late. With nothing
// in flight idle then returns at once; with a transaction in flight it
// retires the ACK that answers it, stamped with its own arrival, and
// returns once nothing is in flight, before the release instant.
func TestIdleFlushesOnEntry(t *testing.T) {
	m := clock.NewManual()
	var wire bytes.Buffer
	s := manualSession(m, &wire)
	p := pendingEv{seq: 1, ue: 3, ev: byte(events.Attach), sentAt: m.Now()}
	if err := s.writeSeqEvent(&p); err != nil {
		t.Fatal(err)
	}
	s.idle(epoch.Add(time.Second)) // nothing in flight: flush and return
	frame := len(seqEventFrame(make([]byte, 30), 1, 3, 0, byte(events.Attach)))
	if wire.Len() != frame {
		t.Fatalf("idle with nothing in flight left %d of %d bytes buffered", frame-wire.Len(), frame)
	}

	p.seq = 2
	s.pending = []pendingEv{p}
	if err := s.writeSeqEvent(&p); err != nil {
		t.Fatal(err)
	}
	done := make(chan time.Time)
	go func() {
		s.idle(epoch.Add(time.Second))
		done <- m.Now()
	}()
	m.BlockUntil(1) // idle waits; the frame must already be on the wire
	if wire.Len() != 2*frame {
		t.Fatalf("idle waits with %d bytes unflushed", 2*frame-wire.Len())
	}
	m.Advance(3 * time.Millisecond)
	s.lastAckAt.Store(m.Now().UnixNano())
	s.lastAck.Store(2)
	s.notify <- struct{}{}
	if at := <-done; !at.Equal(epoch.Add(3 * time.Millisecond)) {
		t.Fatalf("idle returned at %v, want at the ACK (3ms)", at.Sub(epoch))
	}
	if s.acked != 1 || s.srtt != 3*time.Millisecond || len(s.pending) != 0 {
		t.Fatalf("after the ACK: acked %d, srtt %v, %d in flight; want 1, 3ms, 0", s.acked, s.srtt, len(s.pending))
	}
}

// TestIdleBoundedByRTO pins the bound on the paced source's idle hook: with
// a transaction in flight and no ACK coming (a dead connection, a stalled
// server), idle gives the wait back to the source when the oldest
// transaction's RTO expires, not at the far-off release instant — so a
// cancelled run's pacer is not held through a long quiet stretch.
func TestIdleBoundedByRTO(t *testing.T) {
	m := clock.NewManual()
	var wire bytes.Buffer
	s := manualSession(m, &wire)
	s.rto = 50 * time.Millisecond
	s.pending = []pendingEv{{seq: 1, sentAt: m.Now().Add(-10 * time.Millisecond)}}
	done := make(chan time.Time)
	go func() {
		s.idle(epoch.Add(10 * time.Second))
		done <- m.Now()
	}()
	m.BlockUntil(1)
	m.Advance(40 * time.Millisecond)
	if at := <-done; !at.Equal(epoch.Add(40 * time.Millisecond)) {
		t.Fatalf("idle returned at %v, want at the RTO (40ms)", at.Sub(epoch))
	}
	// And the timer is left usable for the driver's own wait.
	s.timer.Reset(time.Millisecond)
	m.Advance(time.Millisecond)
	if at := <-s.timer.C; !at.Equal(epoch.Add(41 * time.Millisecond)) {
		t.Fatalf("session timer fired at %v after idle, want 41ms", at.Sub(epoch))
	}
}

// pipeServer is what each connection of a pipeDial serves.
type pipeServer int

const (
	refused pipeServer = iota // fail the dial
	hangUp                    // answer the resume handshake, then close
	silent                    // answer the handshake, never acknowledge
	acking                    // acknowledge every event, report, close on BYE
)

// pipeDial is a ClosedOpts.Dial over in-memory net.Pipe connections. Call
// n (from 0) sends the clock's time on dials, then connects to a server of
// kind serve(n). No server has applied anything, so every handshake
// resumes from 0.
func pipeDial(m *clock.Manual, dials chan<- time.Time, serve func(n int) pipeServer) func(string) (net.Conn, error) {
	n := 0
	return func(string) (net.Conn, error) {
		kind := serve(n)
		n++
		dials <- m.Now()
		if kind == refused {
			return nil, errors.New("connection refused")
		}
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			br := bufio.NewReader(server)
			var buf [8]byte
			for {
				t, payload, err := readFrame(br)
				if err != nil {
					return
				}
				switch {
				case t == frameClosedHello:
					writeFrame(server, frameAck, ackPayload(buf[:], 0))
					if kind == hangUp {
						return
					}
				case t == frameSeqEvent && kind == acking:
					seq, _, _, _, _ := decodeSeqEvent(payload)
					writeFrame(server, frameAck, ackPayload(buf[:], seq))
				case t == frameStats:
					writeFrame(server, frameReport, []byte("{}"))
				case t == frameBye:
					return
				}
			}
		}()
		return client, nil
	}
}

// replayOne runs ReplayClosed of one event with o on its own goroutine.
func replayOne(o ClosedOpts) <-chan error {
	out := make(chan error, 1)
	go func() {
		_, err := ReplayClosed("pipe", events.Gen4G, seqSource(1), o)
		out <- err
	}()
	return out
}

// TestReconnectBackoffSchedule pins the reconnect schedule at the
// production constants: the server hangs up, and every redial fails, 20,
// 40, 80 … ms after the last attempt, the delay capped at 2 s, until the
// driver gives up after the tenth.
func TestReconnectBackoffSchedule(t *testing.T) {
	m := clock.NewManual()
	dials := make(chan time.Time, 1)
	o := ClosedOpts{SessionID: 1, clock: m, Dial: pipeDial(m, dials, func(n int) pipeServer {
		if n == 0 {
			return hangUp
		}
		return refused
	})}
	result := replayOne(o)
	at := <-dials
	backoff := 20 * time.Millisecond
	for attempt := 1; attempt <= 10; attempt++ {
		m.BlockUntil(1)
		m.Advance(backoff)
		if got := <-dials; !got.Equal(at.Add(backoff)) {
			t.Fatalf("redial %d at %v, want %v after the last attempt at %v", attempt, got.Sub(epoch), backoff, at.Sub(epoch))
		}
		at = at.Add(backoff)
		backoff = min(2*backoff, 2*time.Second)
	}
	if err := <-result; err == nil || !strings.Contains(err.Error(), "gave up after 10 reconnect attempts") {
		t.Fatalf("replay ended with %v, want the give-up after 10 attempts", err)
	}
	if want := epoch.Add(20*(1+2+4+8+16+32+64)*time.Millisecond + 3*2*time.Second); !at.Equal(want) {
		t.Fatalf("last redial at %v, want %v", at.Sub(epoch), want.Sub(epoch))
	}
}

// TestRTODoubling pins retransmission at the production constants against
// a server that never acknowledges: the oldest transaction's RTO expires
// at 1 s, and each expiry doubles it (Karn), capped at 10 s; each expiry
// reconnects after the first 20 ms backoff and retransmits. The sixth
// connection acknowledges, and the replay completes.
func TestRTODoubling(t *testing.T) {
	m := clock.NewManual()
	dials := make(chan time.Time, 1)
	live := &LiveStats{}
	o := ClosedOpts{SessionID: 1, clock: m, Live: live, Dial: pipeDial(m, dials, func(n int) pipeServer {
		if n < 5 {
			return silent
		}
		return acking
	})}
	result := make(chan ClosedStats, 1)
	go func() {
		st, err := ReplayClosed("pipe", events.Gen4G, seqSource(1), o)
		if err != nil {
			t.Error(err)
		}
		result <- st
	}()
	at := <-dials
	for i, rto := range []time.Duration{1, 2, 4, 8, 10} {
		rto *= time.Second
		m.BlockUntil(1)
		m.Advance(rto) // the RTO expires
		m.BlockUntil(1)
		m.Advance(20 * time.Millisecond) // the first reconnect backoff
		got := <-dials
		if want := at.Add(rto + 20*time.Millisecond); !got.Equal(want) {
			t.Fatalf("expiry %d: redialled at %v, want %v (RTO %v)", i+1, got.Sub(epoch), want.Sub(epoch), rto)
		}
		at = got
	}
	st := <-result
	if st.Sent != 1 || st.Acked != 1 || st.Retransmits != 5 || st.Reconnects != 5 || live.RTONanos.Load() != int64(10*time.Second) {
		t.Fatalf("sent %d acked %d retransmits %d reconnects %d RTO %v; want 1 1 5 5 10s",
			st.Sent, st.Acked, st.Retransmits, st.Reconnects, time.Duration(live.RTONanos.Load()))
	}
	if want := 25*time.Second + 100*time.Millisecond; st.Wall != want {
		t.Fatalf("replay took %v of clock, want %v", st.Wall, want)
	}
}

// TestServiceTimeIsARate pins ServiceTime as a rate, at consume: the
// server applies event i (from 1) once its schedule reaches i service
// times past its start, less the credit — however coarsely the clock
// moves, up to the credit at a step, as a timer that sleeps late does. So
// 2,000 events take 2,000 service times, less the credit, both at a service
// time shorter than a typical timer oversleep and at a longer one.
func TestServiceTimeIsARate(t *testing.T) {
	const n = 2000
	for _, per := range []time.Duration{300 * time.Microsecond, time.Millisecond} {
		m := clock.NewManual()
		s := &Server{opts: ServerOpts{ServiceTime: per}, clock: m, tally: statemachine.NewTally(statemachine.New(events.Gen4G))}
		s.stats.ByType = map[string]int{}
		done := make(chan []time.Time)
		go func() {
			var served time.Time
			at := make([]time.Time, n)
			for i := range at {
				s.consume(&served, uint64(i%16), int64(i), events.Attach)
				at[i] = m.Now()
			}
			done <- at
		}()
		steps := []time.Duration{per / 3, per, 2*per + 7, serviceCredit}
		reached := []time.Time{epoch}
		for last := epoch.Add(n*per - serviceCredit); reached[len(reached)-1].Before(last); {
			d := steps[len(reached)%len(steps)]
			m.BlockUntil(1)
			m.Advance(d)
			reached = append(reached, reached[len(reached)-1].Add(d))
		}
		at := <-done
		j := 0
		for i := range at {
			due := epoch.Add(time.Duration(i+1)*per - serviceCredit)
			for reached[j].Before(due) {
				j++
			}
			if !at[i].Equal(reached[j]) {
				t.Fatalf("ServiceTime %v: event %d applied at %v, want %v (due %v)", per, i+1, at[i].Sub(epoch), reached[j].Sub(epoch), due.Sub(epoch))
			}
		}
		if s.tally.Events != n {
			t.Fatalf("ServiceTime %v: %d events applied, want %d", per, s.tally.Events, n)
		}
	}
}
