package replaynet

import (
	"bufio"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/faultnet"
)

// rawClosedConn is a hand-driven closed-loop client for protocol-level
// assertions.
type rawClosedConn struct {
	conn    net.Conn
	br      *bufio.Reader
	session uint64
}

func dialRawClosed(t *testing.T, addr string, session uint64) *rawClosedConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawClosedConn{conn: conn, br: bufio.NewReader(conn), session: session}
}

// hello performs the CHELLO handshake and returns the resume sequence.
func (c *rawClosedConn) hello(t *testing.T) uint64 {
	t.Helper()
	if err := writeFrame(c.conn, frameClosedHello, closedHelloPayload(byte(events.Gen4G), c.session)); err != nil {
		t.Fatal(err)
	}
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ft, payload, err := readFrame(c.br)
	if err != nil {
		t.Fatal(err)
	}
	if ft != frameAck {
		t.Fatalf("handshake answered with %q, want ACK", byte(ft))
	}
	seq, err := decodeAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// sendSeq transmits one sequenced attach event.
func (c *rawClosedConn) sendSeq(t *testing.T, seq uint64) {
	t.Helper()
	var buf [21]byte
	if err := writeFrame(c.conn, frameSeqEvent, seqEventPayload(buf[:], seq, uint32(seq%8), int64(seq), byte(events.Attach))); err != nil {
		t.Fatal(err)
	}
}

// waitAck reads ACK frames until the cumulative sequence reaches at least
// want, returning the last value seen.
func (c *rawClosedConn) waitAck(t *testing.T, want uint64) uint64 {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var last uint64
	for last < want {
		ft, payload, err := readFrame(c.br)
		if err != nil {
			t.Fatalf("waiting for ack %d (have %d): %v", want, last, err)
		}
		if ft != frameAck {
			t.Fatalf("got frame %q while waiting for ACK", byte(ft))
		}
		seq, err := decodeAck(payload)
		if err != nil {
			t.Fatal(err)
		}
		last = seq
	}
	return last
}

func (c *rawClosedConn) close() { c.conn.Close() }

// mustServe starts a plain server for resilience tests.
func mustServe(t *testing.T, opts ServerOpts) *Server {
	t.Helper()
	srv, err := ListenAndServeOpts("127.0.0.1:0", events.Gen4G, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// sanityReplay checks the server still serves a well-formed driver.
func sanityReplay(t *testing.T, srv *Server, n int) {
	t.Helper()
	before := srv.Snapshot().Events
	st, err := ReplayClosed(srv.Addr().String(), events.Gen4G, seqSource(n), fastOpts(uint64(9000+n)))
	if err != nil {
		t.Fatalf("server no longer serves clean drivers: %v", err)
	}
	if got := st.Server.Events - before; got != n {
		t.Fatalf("sanity replay applied %d, want %d", got, n)
	}
}

// TestServerSurvivesMalformedFrameType pins that an unknown frame type
// drops only the offending connection.
func TestServerSurvivesMalformedFrameType(t *testing.T) {
	srv := mustServe(t, ServerOpts{})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, frameType('Z'), []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	// The server must close this connection...
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := readFrame(bufio.NewReader(conn)); err == nil {
		t.Fatal("server kept a connection alive after a malformed frame")
	}
	// ...and keep serving everyone else.
	sanityReplay(t, srv, 50)
}

// TestServerSurvivesOversizedFrame pins the maxFrame guard: a length field
// beyond the limit must not allocate, must drop the connection, and must
// not take the server down.
func TestServerSurvivesOversizedFrame(t *testing.T) {
	srv := mustServe(t, ServerOpts{})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hdr [5]byte
	hdr[0] = byte(frameEvent)
	binary.BigEndian.PutUint32(hdr[1:], maxFrame+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := readFrame(bufio.NewReader(conn)); err == nil {
		t.Fatal("server kept a connection alive after an oversized frame")
	}
	sanityReplay(t, srv, 50)
}

// TestServerSurvivesMidStreamDisconnect kills a connection halfway through
// a sequenced stream and checks the session state survives for a resume.
func TestServerSurvivesMidStreamDisconnect(t *testing.T) {
	srv := mustServe(t, ServerOpts{})
	c := dialRawClosed(t, srv.Addr().String(), 777)
	if got := c.hello(t); got != 0 {
		t.Fatalf("fresh session at %d", got)
	}
	for seq := uint64(1); seq <= 20; seq++ {
		c.sendSeq(t, seq)
	}
	c.waitAck(t, 20)
	c.close() // abrupt: no BYE

	// The session resumes where it stood.
	c2 := dialRawClosed(t, srv.Addr().String(), 777)
	if got := c2.hello(t); got != 20 {
		t.Fatalf("resume at %d, want 20", got)
	}
	sanityReplay(t, srv, 50)
}

// TestServerSlowReaderBackpressure drives an open-loop burst into a
// rate-limited server through a stalling link: the client must simply block
// on TCP backpressure and complete with every event accounted for.
func TestServerSlowReaderBackpressure(t *testing.T) {
	srv := mustServe(t, ServerOpts{
		ServiceTime: 200 * time.Microsecond,
		Fault:       &faultnet.Config{Seed: 21, StallProb: 0.05, StallDur: 2 * time.Millisecond},
	})
	const n = 2000
	st, err := ReplayStream(srv.Addr().String(), events.Gen4G, seqSource(n))
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != n {
		t.Fatalf("server saw %d events, want %d", st.Events, n)
	}
}

// TestOpenLoopWireBytesUnchanged pins the acceptance criterion that the
// open-loop path is byte-identical when the closed loop is off: the exact
// byte stream ReplayStream produces for a fixed source must match the
// pre-PR framing (HELLO, EVENTs, STATS, BYE — no closed-loop frames).
func TestOpenLoopWireBytesUnchanged(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	gotCh := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		var raw []byte
		for {
			ft, payload, err := readFrame(br)
			if err != nil {
				return
			}
			// Re-encode exactly what arrived to capture the byte stream.
			var hdr [5]byte
			hdr[0] = byte(ft)
			binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
			raw = append(raw, hdr[:]...)
			raw = append(raw, payload...)
			switch ft {
			case frameStats:
				writeFrame(conn, frameReport, []byte(`{"events":0,"by_type":{}}`))
			case frameBye:
				gotCh <- raw
				return
			}
		}
	}()

	const n = 10
	if _, err := ReplayStream(ln.Addr().String(), events.Gen4G, seqSource(n)); err != nil {
		t.Fatal(err)
	}
	var got []byte
	select {
	case got = <-gotCh:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out capturing wire bytes")
	}

	// The expected stream, assembled with the frozen open-loop framing.
	var want []byte
	appendFrame := func(ft frameType, payload []byte) {
		var hdr [5]byte
		hdr[0] = byte(ft)
		binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
		want = append(want, hdr[:]...)
		want = append(want, payload...)
	}
	appendFrame(frameHello, []byte{byte(events.Gen4G)})
	src := seqSource(n)
	ueIdx := map[uint64]uint32{}
	for {
		ev, ok, _ := src.NextArrival()
		if !ok {
			break
		}
		idx, seen := ueIdx[ev.UE]
		if !seen {
			idx = uint32(len(ueIdx))
			ueIdx[ev.UE] = idx
		}
		appendFrame(frameEvent, eventPayload(idx, int64(ev.Time*1e6), byte(ev.Type)))
	}
	appendFrame(frameStats, nil)
	appendFrame(frameBye, nil)

	if string(got) != string(want) {
		t.Fatalf("open-loop wire bytes changed:\n got %x\nwant %x", got, want)
	}
}
