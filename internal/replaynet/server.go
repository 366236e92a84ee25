package replaynet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"cptgpt/internal/clock"
	"cptgpt/internal/events"
	"cptgpt/internal/faultnet"
	"cptgpt/internal/statemachine"
)

// Stats is the server-side accounting returned to drivers on request.
type Stats struct {
	// Events is the number of EVENT/SEVENT frames accepted, each UE's
	// events before its bootstrap included. Rejected counts events that
	// violated the UE state machine; its denominator is Events. Table 5's
	// violation rate divides by the counted events only, those after the
	// bootstrap (statemachine.Tally.CountedEvents).
	Events   int `json:"events"`
	Rejected int `json:"rejected"`
	// Duplicates counts closed-loop events suppressed by session sequence
	// tracking (a retransmission of an already-applied event) — they are
	// acknowledged but never re-applied, which is what keeps reconnecting
	// drivers exactly-once.
	Duplicates int `json:"duplicates,omitempty"`
	// ConnectedUEs is the current number of UEs in the CONNECTED state;
	// PeakConnectedUEs its high-water mark.
	ConnectedUEs     int `json:"connected_ues"`
	PeakConnectedUEs int `json:"peak_connected_ues"`
	// ByType counts accepted events per type name.
	ByType map[string]int `json:"by_type"`
}

// ServerOpts tunes a server beyond the open-loop defaults. The zero value
// reproduces the pre-closed-loop behavior exactly.
type ServerOpts struct {
	// ServiceTime, when positive, is the per-event processing time: each
	// connection applies events on a schedule that advances by ServiceTime
	// per event, so its consumption rate is 1/ServiceTime however coarsely
	// the OS timer sleeps — the knob that turns the server into a
	// rate-limited NF stand-in for closed-loop controller tests and
	// benchmarks.
	ServiceTime time.Duration
	// Fault, when non-nil, wraps every accepted connection in a
	// deterministic fault-injection schedule (per-connection seeds derived
	// from Fault.Seed and the accept ordinal).
	Fault *faultnet.Config
}

// serviceCredit bounds how far a connection's service schedule may trail
// the wall clock: enough to repay a sleep that overshot, so the rate holds
// at 1/ServiceTime, and little enough that an idle connection does not bank
// a burst.
const serviceCredit = 5 * time.Millisecond

// ackEvery bounds how many applied closed-loop events may pass between ACK
// frames; an ACK is also emitted whenever the read buffer drains (the
// natural batch boundary).
const ackEvery = 32

// session is the per-driver closed-loop delivery state, keyed by the
// client-chosen session ID and persistent across that driver's reconnects.
type session struct {
	applied uint64 // highest contiguously applied sequence number
}

// Server is an MCN control-plane frontend: it accepts driver connections,
// consumes EVENT frames, validates them against the 3GPP state machine and
// keeps per-UE state, mirroring a stateful core implementation. Closed-loop
// drivers (CHELLO/SEVENT) additionally get per-session cumulative ACKs with
// exactly-once application across reconnects.
type Server struct {
	ln    net.Listener
	gen   events.Generation
	opts  ServerOpts
	clock clock.Clock // the service schedule's

	mu       sync.Mutex
	stats    Stats               // Duplicates and ByType; the rest is in tally
	tally    *statemachine.Tally // every connection's events, applied in order
	sessions map[uint64]*session
	closed   bool
	wg       sync.WaitGroup
}

// ListenAndServe starts a server on addr (e.g. "127.0.0.1:0") for the given
// generation. It returns once the listener is ready; connections are served
// on background goroutines until Close.
func ListenAndServe(addr string, gen events.Generation) (*Server, error) {
	return ListenAndServeOpts(addr, gen, ServerOpts{})
}

// ListenAndServeOpts is ListenAndServe with explicit server options.
func ListenAndServeOpts(addr string, gen events.Generation, opts ServerOpts) (*Server, error) {
	if opts.Fault != nil {
		if err := opts.Fault.Validate(); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("replaynet: listen %s: %w", addr, err)
	}
	if opts.Fault != nil {
		ln = faultnet.WrapListener(ln, *opts.Fault)
	}
	s := &Server{
		ln:       ln,
		gen:      gen,
		opts:     opts,
		clock:    clock.Wall,
		tally:    statemachine.NewTally(statemachine.New(gen)),
		sessions: make(map[uint64]*session),
	}
	s.stats.ByType = make(map[string]int)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener address (useful with port 0).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting and waits for in-flight connections to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Snapshot returns a copy of the current stats.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := s.stats
	cp.Events, cp.Rejected = s.tally.Events, s.tally.ViolatingEvents
	cp.ConnectedUEs, cp.PeakConnectedUEs = s.tally.Connected, s.tally.PeakConnected
	cp.ByType = make(map[string]int, len(s.stats.ByType))
	for k, v := range s.stats.ByType {
		cp.ByType[k] = v
	}
	return cp
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// lookupSession returns (creating if needed) the session for id.
func (s *Server) lookupSession(id uint64) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id]
	if sess == nil {
		sess = &session{}
		s.sessions[id] = sess
	}
	return sess
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)

	var sess *session    // non-nil once a CHELLO arrives
	var served time.Time // when the connection's previous event was due
	var ackBuf [8]byte
	sinceAck := 0
	// flushAck emits a cumulative ACK for the session's applied seq.
	flushAck := func() bool {
		if sess == nil {
			return true
		}
		s.mu.Lock()
		applied := sess.applied
		s.mu.Unlock()
		if err := writeFrame(bw, frameAck, ackPayload(ackBuf[:], applied)); err != nil {
			return false
		}
		if err := bw.Flush(); err != nil {
			return false
		}
		sinceAck = 0
		return true
	}

	var buf []byte // the frames' storage, reused
	for {
		t, payload, err := readFrameInto(br, buf)
		buf = payload
		if err != nil {
			return // end of stream, or a malformed frame: nothing useful to answer
		}
		switch t {
		case frameHello:
			// Generation negotiation: reject mismatches by closing.
			if len(payload) != 1 || events.Generation(payload[0]) != s.gen {
				return
			}
		case frameClosedHello:
			gen, id, err := decodeClosedHello(payload)
			if err != nil || events.Generation(gen) != s.gen {
				return
			}
			sess = s.lookupSession(id)
			// The resume handshake: tell the (re)connecting driver exactly
			// where the session stands so it resends only unapplied events.
			if !flushAck() {
				return
			}
		case frameEvent:
			ue, at, evb, err := decodeEvent(payload)
			if err != nil {
				return
			}
			ev := events.Type(evb)
			if !ev.Valid() {
				return
			}
			s.consume(&served, ue, at, ev)
		case frameSeqEvent:
			if sess == nil {
				return // sequenced events require a closed-loop hello
			}
			seq, ue, at, evb, err := decodeSeqEvent(payload)
			if err != nil {
				return
			}
			ev := events.Type(evb)
			if !ev.Valid() {
				return
			}
			s.mu.Lock()
			applied := sess.applied
			switch {
			case seq <= applied:
				// A retransmission of an already-applied event: count it,
				// never re-apply — the exactly-once half of the contract.
				s.stats.Duplicates++
				s.mu.Unlock()
			case seq == applied+1:
				sess.applied = seq
				s.mu.Unlock()
				s.consume(&served, ue, at, ev)
				sinceAck++
			default:
				// A gap: the driver always sends contiguously within one
				// connection, so this is a protocol violation (e.g. bytes
				// lost by a faulty link) — drop the connection and let the
				// driver reconnect and resync from the resume ACK.
				s.mu.Unlock()
				return
			}
			// Ack per batch: when the read buffer drains (no more frames
			// immediately pending) or every ackEvery applied events.
			if sinceAck >= ackEvery || br.Buffered() == 0 {
				if !flushAck() {
					return
				}
			}
		case frameStats:
			st := s.Snapshot()
			body, err := json.Marshal(st)
			if err != nil {
				return
			}
			if err := writeFrame(bw, frameReport, body); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		case frameBye:
			return
		default:
			return // unknown frame: drop the connection
		}
	}
}

// consume applies UE ue's event ev, stamped at microseconds, to the
// stateful UE table once the connection's service schedule reaches it:
// ServiceTime after the previous event was due, *served, which it advances.
func (s *Server) consume(served *time.Time, ue uint64, at int64, ev events.Type) {
	if s.opts.ServiceTime > 0 {
		now := s.clock.Now()
		if floor := now.Add(-serviceCredit); served.Before(floor) {
			*served = floor
		}
		*served = served.Add(s.opts.ServiceTime)
		clock.Sleep(s.clock, served.Sub(now))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.ByType[ev.String()]++
	s.tally.Observe(ue, ev, float64(at)/1e6)
}
