package replaynet

// Closed-loop replay: the congestion-controlled counterpart of ReplayStream.
// Instead of pouring events onto the wire open-loop, the driver treats each
// event as a signaling transaction that the server acknowledges (cumulative
// ACK frames over sequenced SEVENT frames), estimates the transaction RTT
// (RFC-6298 sRTT/rttvar with exponential RTO), and bounds the in-flight
// transaction count with a CUBIC-style congestion window. A lost or stalled
// connection is survived by bounded-exponential-backoff reconnection that
// resumes the session exactly where the server left it — the server's
// resume ACK tells the driver which events were applied, so nothing is
// duplicated and nothing is lost.
//
// Concurrency contract: one driver goroutine owns the send loop; a reader
// goroutine per connection folds ACK arrivals into two atomics and a
// notification channel (never blocking, so a slow driver can never deadlock
// the ack stream against TCP backpressure). LiveStats mirrors the
// mcn.LiveStats idiom: every field is an atomic, written by the driver loop
// and readable from any goroutine while the replay runs.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sync/atomic"
	"time"

	"cptgpt/internal/clock"
	"cptgpt/internal/events"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/trace"
	"cptgpt/internal/tracez"
)

// LiveStats publishes a running closed-loop replay's transport state for
// concurrent readers: all fields are atomics, written by the driver loop
// and readable from any goroutine at any time (the cptserved daemon's
// cptserved_replay_* series read them at scrape time).
type LiveStats struct {
	// CwndEvents is the current congestion window in whole in-flight
	// transactions; Inflight the sent-but-unacknowledged count.
	CwndEvents atomic.Int64
	Inflight   atomic.Int64
	// SRTTNanos/RTTVarNanos/RTONanos are the RFC-6298 estimator state.
	SRTTNanos   atomic.Int64
	RTTVarNanos atomic.Int64
	RTONanos    atomic.Int64
	// Sent counts first transmissions, Retransmits re-sends after a loss
	// event, Acked server-applied transactions, Reconnects completed
	// reconnect-and-resume handshakes.
	Sent        atomic.Int64
	Acked       atomic.Int64
	Retransmits atomic.Int64
	Reconnects  atomic.Int64
	// AckedSeq is the highest sequence number the server has contiguously
	// applied — absolute across resumed incarnations of the same session
	// (it starts at ClosedOpts.ResumeFrom, not 0). This is the exact value
	// a durable checkpoint can record: every event with seq ≤ AckedSeq is
	// applied server-side, nothing beyond it is.
	AckedSeq atomic.Uint64
}

// ClosedOpts tunes a closed-loop replay run. The zero value is usable:
// a fresh session over net.Dial. The driver does not pace: it sends as fast
// as the congestion window allows, and a source that paces itself
// (scenario.Pacer) sets the schedule.
type ClosedOpts struct {
	// SessionID keys the server-side resume state. 0 derives a fresh ID
	// from the wall clock; pass an explicit ID for reproducible tests.
	SessionID uint64
	// ResumeFrom resumes a crashed incarnation of this session: it is the
	// highest sequence number the previous incarnation knew the server had
	// applied, and the source must deliver the event stream from sequence
	// ResumeFrom+1 on. At the handshake the server reports its actual
	// applied sequence A ≥ ResumeFrom; the first A−ResumeFrom source
	// events are already applied server-side and are skipped without
	// sending, so delivery stays exactly-once across the crash. If the
	// server reports A < ResumeFrom its session state is gone (server
	// restart) and the replay fails fast rather than double-applying.
	ResumeFrom uint64
	// Dial overrides connection establishment (the fault-injection seam:
	// pass faultnet.Dialer(cfg)); nil means plain net.Dial("tcp", addr).
	Dial func(addr string) (net.Conn, error)
	// Live, when non-nil, receives the run's transport state as atomics.
	Live *LiveStats
	// RTTSink, when non-nil, is the histogram the run records every sampled
	// send→ACK latency (seconds) into and reads its ClosedStats latencies
	// from, in place of a private one — the native Prometheus distribution
	// behind a daemon's cptserved_replay_rtt_seconds series. It must be
	// empty and the run its only writer; a source that paces itself may
	// Reset it between pulls, on the driver's goroutine (the SLO search's
	// probe windows). Never changes the replay.
	RTTSink *telemetry.Histogram

	// Test seams, zero = the default: the retransmission-timeout clamp
	// (100ms / 10s) and its seed before the first RTT sample (1s); the first
	// reconnect delay (20ms), doubled per consecutive failure up to its cap
	// (2s); the consecutive failed reconnect attempts that end the replay
	// (10); the clock every stamp, timeout and backoff reads (clock.Wall).
	minRTO, maxRTO, initialRTO            time.Duration
	reconnectBackoff, maxReconnectBackoff time.Duration
	maxReconnects                         int
	clock                                 clock.Clock
}

// The slow-start entry window and the window cap, in events.
const (
	initialCwnd = 4.0
	maxCwnd     = 4096.0
)

// replyTimeout bounds the wait for the server's resume ACK and final report.
const replyTimeout = 3 * time.Second

// NewSessionID derives a fresh session key from the wall clock — what a
// zero ClosedOpts.SessionID resolves to, for a caller that must know the
// key before the replay starts (to journal it).
func NewSessionID() uint64 { return uint64(time.Now().UnixNano())*2654435761 + 1 }

// withDefaults resolves zero fields to their defaults.
func (o ClosedOpts) withDefaults() ClosedOpts {
	if o.SessionID == 0 {
		o.SessionID = NewSessionID()
	}
	if o.minRTO <= 0 {
		o.minRTO = 100 * time.Millisecond
	}
	if o.maxRTO <= 0 {
		o.maxRTO = 10 * time.Second
	}
	if o.initialRTO <= 0 {
		o.initialRTO = time.Second
	}
	if o.reconnectBackoff <= 0 {
		o.reconnectBackoff = 20 * time.Millisecond
	}
	if o.maxReconnectBackoff <= 0 {
		o.maxReconnectBackoff = 2 * time.Second
	}
	if o.maxReconnects <= 0 {
		o.maxReconnects = 10
	}
	if o.Dial == nil {
		o.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if o.clock == nil {
		o.clock = clock.Wall
	}
	return o
}

// ClosedStats summarizes a closed-loop replay run.
type ClosedStats struct {
	// Server is the server's final report.
	Server Stats
	// Sent counts first transmissions; Acked server-applied transactions;
	// Retransmits re-sent events; Reconnects completed resume handshakes.
	Sent, Acked, Retransmits, Reconnects int64
	// MeanLatency and the percentiles summarize per-transaction
	// send→acknowledge latency (log-bucket histogram percentiles).
	MeanLatency, P95Latency, P99Latency time.Duration
	// AchievedRate is acked transactions per wall-clock second.
	AchievedRate float64
	// Wall is the total replay duration.
	Wall time.Duration
	// FinalCwnd and SRTT are the congestion state at the end of the run.
	FinalCwnd float64
	SRTT      time.Duration
}

// CUBIC constants (RFC 8312 flavor): cubicC scales window growth, cubicBeta
// is the multiplicative-decrease factor applied on a loss event.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
	minCwnd   = 2.0
)

// pendingEv is one sent-but-unacknowledged transaction.
type pendingEv struct {
	seq     uint64
	ue      uint64
	tMicros int64
	ev      byte
	sentAt  time.Time
	retx    bool
}

// closedSession is the driver state machine.
type closedSession struct {
	addr string
	gen  events.Generation
	o    ClosedOpts

	conn     net.Conn
	bw       *bufio.Writer
	notify   chan struct{}
	readErr  chan error
	reportCh chan Stats
	timer    *clock.Timer // stopped between waits

	lastAck   atomic.Uint64
	lastAckAt atomic.Int64 // clock nanos of the newest ACK arrival

	pending   []pendingEv // in send order, compacted as ACKs retire them
	frame     [30]byte    // send's scratch: one SEVENT frame
	ackedSeq  uint64      // highest sequence processed out of lastAck
	nextSeq   uint64
	flushedAt time.Time
	srcDone   bool // the source is exhausted

	// Congestion state.
	cwnd, wMax, cubicK float64
	epoch              time.Time
	slowStart          bool

	// RFC-6298 estimator state.
	srtt, rttvar, rto time.Duration

	// Latency accounting: o.RTTSink when given, else a private histogram.
	hist *telemetry.Histogram

	sent, retx, acked, reconnects int64
	start                         time.Time
}

// publishLive refreshes the LiveStats atomics.
func (s *closedSession) publishLive() {
	l := s.o.Live
	if l == nil {
		return
	}
	l.CwndEvents.Store(int64(s.cwnd))
	l.Inflight.Store(int64(len(s.pending)))
	l.SRTTNanos.Store(int64(s.srtt))
	l.RTTVarNanos.Store(int64(s.rttvar))
	l.RTONanos.Store(int64(s.rto))
	l.Sent.Store(s.sent)
	l.Acked.Store(s.acked)
	l.Retransmits.Store(s.retx)
	l.Reconnects.Store(s.reconnects)
	l.AckedSeq.Store(s.ackedSeq)
}

// startReader spawns the per-connection ACK/REPORT reader. It never blocks
// on the session: ACK state folds into atomics with a non-blocking notify,
// so TCP backpressure on the event stream can never deadlock the ack path.
func (s *closedSession) startReader(br *bufio.Reader, notify chan struct{}, errCh chan error, reportCh chan Stats) {
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	go func() {
		var buf []byte
		for {
			t, payload, err := readFrameInto(br, buf)
			buf = payload
			if err != nil {
				fail(err)
				return
			}
			switch t {
			case frameAck:
				seq, err := decodeAck(payload)
				if err != nil {
					fail(err)
					return
				}
				for {
					cur := s.lastAck.Load()
					if seq <= cur {
						break
					}
					if s.lastAck.CompareAndSwap(cur, seq) {
						s.lastAckAt.Store(s.o.clock.Now().UnixNano())
						break
					}
				}
				select {
				case notify <- struct{}{}:
				default:
				}
			case frameReport:
				var st Stats
				if err := json.Unmarshal(payload, &st); err == nil {
					select {
					case reportCh <- st:
					default:
					}
				}
			default:
				fail(fmt.Errorf("replaynet: unexpected frame %q from server", byte(t)))
				return
			}
		}
	}()
}

// connect dials, performs the CHELLO resume handshake synchronously and
// spawns the reader. It returns the server's applied sequence number.
func (s *closedSession) connect() (uint64, error) {
	conn, err := s.o.Dial(s.addr)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, frameClosedHello, closedHelloPayload(byte(s.gen), s.o.SessionID)); err != nil {
		conn.Close()
		return 0, err
	}
	if err := bw.Flush(); err != nil {
		conn.Close()
		return 0, err
	}
	// The resume ACK is read inline (bounded by a deadline) so the caller
	// knows exactly where the session stands before sending anything.
	_ = conn.SetReadDeadline(time.Now().Add(replyTimeout))
	br := bufio.NewReader(conn)
	t, payload, err := readFrame(br)
	if err != nil {
		conn.Close()
		return 0, fmt.Errorf("replaynet: resume handshake: %w", err)
	}
	if t != frameAck {
		conn.Close()
		return 0, fmt.Errorf("replaynet: resume handshake: expected ACK, got %q", byte(t))
	}
	applied, err := decodeAck(payload)
	if err != nil {
		conn.Close()
		return 0, err
	}
	_ = conn.SetReadDeadline(time.Time{})

	s.conn = conn
	s.bw = bw
	s.notify = make(chan struct{}, 1)
	s.readErr = make(chan error, 1)
	s.reportCh = make(chan Stats, 1)
	// The handshake's buffered reader is handed to the reader goroutine so
	// any frames that arrived behind the resume ACK are not lost.
	s.startReader(br, s.notify, s.readErr, s.reportCh)
	return applied, nil
}

// reconnect survives a loss event: close, back off exponentially, redial,
// resume the session from the server's applied sequence and retransmit the
// rest of the in-flight window.
func (s *closedSession) reconnect() error {
	sp := tracez.Begin(tracez.StageReplayReconnect, "")
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
	backoff := s.o.reconnectBackoff
	for attempt := 0; ; attempt++ {
		if attempt >= s.o.maxReconnects {
			return fmt.Errorf("replaynet: gave up after %d reconnect attempts", attempt)
		}
		clock.Sleep(s.o.clock, backoff)
		backoff = min(2*backoff, s.o.maxReconnectBackoff)
		applied, err := s.connect()
		if err != nil {
			continue
		}
		now := s.o.clock.Now()
		// Events the server applied before the disconnect are acked by the
		// resume handshake; their ack time is unknown, so they count as
		// acked without contributing latency samples.
		s.popAcked(applied, now, false)
		// Everything else in flight is retransmitted in order.
		for i := range s.pending {
			p := &s.pending[i]
			p.retx = true
			p.sentAt = now
			if err := s.writeSeqEvent(p); err != nil {
				break
			}
		}
		if err := s.flush(); err != nil {
			continue
		}
		s.retx += int64(len(s.pending))
		s.reconnects++
		s.epoch = now
		s.publishLive()
		sp.End(int64(len(s.pending)), "")
		return nil
	}
}

// onLoss applies the CUBIC multiplicative decrease for a loss event (RTO
// expiry or connection failure).
func (s *closedSession) onLoss() {
	s.slowStart = false
	s.wMax = s.cwnd
	s.cwnd *= cubicBeta
	if s.cwnd < minCwnd {
		s.cwnd = minCwnd
	}
	s.cubicK = math.Cbrt(s.wMax * (1 - cubicBeta) / cubicC)
	s.epoch = time.Time{} // restarted when transmission resumes
}

// onAckCwnd grows the window for n newly acked transactions: slow start
// until the first loss, then the CUBIC concave/convex profile around wMax.
func (s *closedSession) onAckCwnd(n int, now time.Time) {
	if s.slowStart {
		s.cwnd += float64(n)
	} else {
		if s.epoch.IsZero() {
			s.epoch = now
			if s.wMax < s.cwnd {
				s.wMax = s.cwnd
				s.cubicK = 0
			}
		}
		t := now.Sub(s.epoch).Seconds()
		for i := 0; i < n; i++ {
			target := cubicC*math.Pow(t-s.cubicK, 3) + s.wMax
			if target > s.cwnd {
				s.cwnd += (target - s.cwnd) / s.cwnd
			} else {
				// Above the cubic target: probe slowly.
				s.cwnd += 0.01 / s.cwnd
			}
		}
	}
	if s.cwnd > maxCwnd {
		s.cwnd = maxCwnd
	}
	if s.cwnd < minCwnd {
		s.cwnd = minCwnd
	}
}

// updateRTT folds one RTT sample into the RFC-6298 estimator.
func (s *closedSession) updateRTT(r time.Duration) {
	if r <= 0 {
		r = time.Microsecond
	}
	if s.srtt == 0 {
		s.srtt = r
		s.rttvar = r / 2
	} else {
		d := s.srtt - r
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + r) / 8
	}
	s.rto = min(max(s.srtt+4*s.rttvar, s.o.minRTO), s.o.maxRTO)
}

// popAcked retires every pending transaction with seq ≤ upTo. With sample
// set, each contributes a latency observation and the newest
// non-retransmitted one an RTT sample (Karn's algorithm). Returns the
// retired count.
func (s *closedSession) popAcked(upTo uint64, at time.Time, sample bool) int {
	n := 0
	rttSample := time.Duration(-1)
	for n < len(s.pending) && s.pending[n].seq <= upTo {
		p := &s.pending[n]
		n++
		s.acked++
		if sample {
			lat := at.Sub(p.sentAt)
			if lat < 0 {
				lat = 0
			}
			s.hist.Observe(lat.Seconds())
			if !p.retx {
				rttSample = lat
			}
		}
	}
	// One compaction per fold, not a reslice per entry: the window keeps its
	// backing array, so send's appends stop reallocating.
	s.pending = s.pending[:copy(s.pending, s.pending[n:])]
	if upTo > s.ackedSeq {
		s.ackedSeq = upTo
	}
	if rttSample >= 0 {
		s.updateRTT(rttSample)
		// One span per ACK fold: the duration is the fold's RTT sample
		// (Karn-filtered), N the transactions it retired.
		tracez.Record(tracez.StageReplayAck, "", at.Add(-rttSample), rttSample, int64(n), "")
	}
	if n > 0 && sample {
		s.onAckCwnd(n, at)
	}
	s.publishLive()
	return n
}

// flush drains the write buffer.
func (s *closedSession) flush() error {
	s.flushedAt = s.o.clock.Now()
	return s.bw.Flush()
}

// retire folds whatever the reader has acknowledged into the session.
func (s *closedSession) retire() {
	upTo := s.lastAck.Load()
	if upTo <= s.ackedSeq {
		return
	}
	s.popAcked(upTo, time.Unix(0, s.lastAckAt.Load()), true)
}

// idle is what a source that paces itself runs before every wait (onIdle):
// the part of the driver's wait that cannot be left until the source
// returns. Everything buffered goes onto the wire, and the ACKs answering
// it are retired as they arrive, up to until — so each is stamped with its
// own arrival, and neither the window, LiveStats nor a checkpoint's applied
// cursor sit stale through the source's sleep. It returns once nothing is
// in flight, at until, or when the oldest transaction's RTO expires — a
// dead connection or a stalled server must not hold the source past it.
// A failed flush sticks in bw, and a dead connection or an expired RTO
// keep: the loop finds them when the source returns.
func (s *closedSession) idle(until time.Time) {
	_ = s.flush()
	if len(s.pending) == 0 {
		return
	}
	if rto := s.pending[0].sentAt.Add(s.rto); rto.Before(until) {
		until = rto
	}
	s.timer.Reset(until.Sub(s.o.clock.Now()))
	for len(s.pending) > 0 {
		select {
		case <-s.notify:
			s.retire()
		case <-s.timer.C:
			return
		}
	}
	s.timer.Stop()
}

// send transmits one event as the next sequenced transaction.
func (s *closedSession) send(ev trace.Arrival, now time.Time) error {
	s.nextSeq++
	p := pendingEv{seq: s.nextSeq, ue: ev.UE, tMicros: int64(ev.Time * 1e6), ev: byte(ev.Type), sentAt: now}
	s.pending = append(s.pending, p)
	s.sent++
	if err := s.writeSeqEvent(&p); err != nil {
		return err
	}
	if now.Sub(s.flushedAt) >= flushInterval {
		return s.flush()
	}
	return nil
}

// writeSeqEvent buffers p's SEVENT frame, encoded in the session's scratch.
func (s *closedSession) writeSeqEvent(p *pendingEv) error {
	if _, err := s.bw.Write(seqEventFrame(s.frame[:], p.seq, p.ue, p.tMicros, p.ev)); err != nil {
		return fmt.Errorf("replaynet: writing frame: %w", err)
	}
	return nil
}

// ReplayClosed connects to a replaynet server and replays a time-ordered
// event sequence as acknowledged, congestion-controlled signaling
// transactions — the closed-loop counterpart of ReplayStream. The window is
// the driver's only throttle (a source that paces itself sets the
// schedule); delivery is exactly-once across connection failures.
func ReplayClosed(addr string, gen events.Generation, src trace.ArrivalSource, opts ClosedOpts) (ClosedStats, error) {
	o := opts.withDefaults()
	s := &closedSession{
		addr: addr, gen: gen, o: o,
		cwnd:      initialCwnd,
		slowStart: true,
		rto:       o.initialRTO,
		hist:      o.RTTSink,
		start:     o.clock.Now(),
		// A resumed incarnation continues the session's absolute sequence
		// space: the next send is ResumeFrom+1 (0 for a fresh session).
		nextSeq:  o.ResumeFrom,
		ackedSeq: o.ResumeFrom,
	}
	if s.hist == nil {
		s.hist = telemetry.NewHistogram(telemetry.LatencyBuckets)
	}
	s.timer = o.clock.NewTimer(time.Hour)
	s.timer.Stop()
	s.lastAck.Store(o.ResumeFrom)
	applied, err := s.connect()
	if err != nil {
		return ClosedStats{}, fmt.Errorf("replaynet: dial %s: %w", addr, err)
	}
	defer func() {
		if s.conn != nil {
			s.conn.Close()
		}
	}()
	onIdle(src, s.idle)
	if o.ResumeFrom > 0 {
		if applied < o.ResumeFrom {
			return ClosedStats{}, fmt.Errorf(
				"replaynet: session %d resume: server applied %d < checkpointed %d (server session state lost); restart the run instead",
				o.SessionID, applied, o.ResumeFrom)
		}
		// Events in (ResumeFrom, applied] were applied server-side but
		// acked after the previous incarnation's last checkpoint: consume
		// them from the source without sending (no pacing, no stats), so
		// the wire resumes exactly at applied+1.
		for skip := applied - o.ResumeFrom; skip > 0; skip-- {
			_, ok, err := src.NextArrival()
			if err != nil {
				return ClosedStats{}, fmt.Errorf("replaynet: event source during resume skip: %w", err)
			}
			if !ok {
				break
			}
			s.nextSeq++
		}
		s.ackedSeq = s.nextSeq
		s.lastAck.Store(s.nextSeq)
	}
	s.publishLive()

	for {
		// Retire whatever the reader has acknowledged.
		s.retire()

		// Fill the window.
		for !s.srcDone && len(s.pending) < int(s.cwnd) {
			ev, ok, err := src.NextArrival()
			if err != nil {
				return ClosedStats{}, fmt.Errorf("replaynet: event source: %w", err)
			}
			if !ok {
				s.srcDone = true
				break
			}
			if err := s.send(ev, o.clock.Now()); err != nil {
				s.onLoss()
				if rerr := s.reconnect(); rerr != nil {
					return ClosedStats{}, rerr
				}
			}
		}
		s.publishLive()

		if s.srcDone && len(s.pending) == 0 {
			break
		}

		// About to wait: everything buffered goes onto the wire first (the
		// flush contract that makes "paced" mean paced).
		if err := s.flush(); err != nil {
			s.onLoss()
			if rerr := s.reconnect(); rerr != nil {
				return ClosedStats{}, rerr
			}
			continue
		}

		// Wait for an ack, a connection failure or the RTO. Something is in
		// flight: the fill stops only at a full window or an exhausted
		// source, and the loop ended if that left nothing in flight.
		s.timer.Reset(max(s.pending[0].sentAt.Add(s.rto).Sub(o.clock.Now()), 0))
		select {
		case <-s.notify:
			s.timer.Stop()
		case <-s.readErr:
			s.timer.Stop()
			s.onLoss()
			if rerr := s.reconnect(); rerr != nil {
				return ClosedStats{}, rerr
			}
		case <-s.timer.C:
			// Per-event timeout: the oldest in-flight transaction blew its
			// RTO — a loss event. Back off the timeout (Karn) and resume
			// through a fresh connection.
			s.rto = min(2*s.rto, o.maxRTO)
			s.onLoss()
			if rerr := s.reconnect(); rerr != nil {
				return ClosedStats{}, rerr
			}
		}
	}

	// Final stats handshake (retried across a reconnect if the connection
	// dies under it).
	server, err := s.finalStats()
	if err != nil {
		return ClosedStats{}, err
	}
	wall := o.clock.Now().Sub(s.start)
	st := ClosedStats{
		Server:      server,
		Sent:        s.sent,
		Acked:       s.acked,
		Retransmits: s.retx,
		Reconnects:  s.reconnects,
		MeanLatency: time.Duration(s.hist.Mean() * 1e9),
		P95Latency:  time.Duration(s.hist.Quantile(0.95) * 1e9),
		P99Latency:  time.Duration(s.hist.Quantile(0.99) * 1e9),
		Wall:        wall,
		FinalCwnd:   s.cwnd,
		SRTT:        s.srtt,
	}
	if w := wall.Seconds(); w > 0 {
		st.AchievedRate = float64(s.acked) / w
	}
	return st, nil
}

// finalStats requests the server's report, reconnecting once if needed.
func (s *closedSession) finalStats() (Stats, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if s.conn == nil {
			if err := s.reconnect(); err != nil {
				return Stats{}, err
			}
		}
		err := writeFrame(s.bw, frameStats, nil)
		if err == nil {
			err = s.flush()
		}
		if err == nil {
			s.timer.Reset(replyTimeout)
			select {
			case st := <-s.reportCh:
				s.timer.Stop()
				if werr := writeFrame(s.bw, frameBye, nil); werr == nil {
					_ = s.flush()
				}
				return st, nil
			case err = <-s.readErr:
				s.timer.Stop()
			case <-s.timer.C:
				err = errors.New("replaynet: timed out waiting for final report")
			}
		}
		lastErr = err
		s.conn.Close()
		s.conn = nil
	}
	return Stats{}, fmt.Errorf("replaynet: final stats: %w", lastErr)
}
