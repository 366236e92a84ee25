package replaynet

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/statemachine"
)

// FuzzServeConn feeds arbitrary bytes to the server's connection loop, the
// frame parser that faces whatever a peer sends: it must not panic, must
// return once the peer is done, and must leave the accounting sane — no
// more rejections than events, no negative connected count, and cumulative
// ACKs that never go backwards.
func FuzzServeConn(f *testing.F) {
	frames := func(build func(add func(frameType, []byte))) []byte {
		var b bytes.Buffer
		build(func(t frameType, p []byte) { _ = writeFrame(&b, t, p) })
		return b.Bytes()
	}
	var seq [25]byte
	var ev [22]byte // payloads are ev[5:]
	// The golden open-loop stream (TestOpenLoopWireBytesUnchanged).
	f.Add(frames(func(add func(frameType, []byte)) {
		add(frameHello, []byte{byte(events.Gen4G)})
		src := seqSource(40)
		for a, ok, _ := src.NextArrival(); ok; a, ok, _ = src.NextArrival() {
			add(frameEvent, eventFrame(ev[:], a.UE, int64(a.Time*1e6), byte(a.Type))[5:])
		}
		add(frameStats, nil)
		add(frameBye, nil)
	}))
	// A closed-loop exchange: hello, sequenced events with a retransmission
	// and a pre-bootstrap one, a resume hello, and an ACK — a frame only the
	// server sends.
	f.Add(frames(func(add func(frameType, []byte)) {
		add(frameClosedHello, closedHelloPayload(byte(events.Gen4G), 77))
		add(frameSeqEvent, seqEventPayload(seq[:], 1, 0, 0, byte(events.TAU)))
		add(frameSeqEvent, seqEventPayload(seq[:], 2, 0, 10, byte(events.Attach)))
		add(frameSeqEvent, seqEventPayload(seq[:], 2, 0, 10, byte(events.Attach)))
		add(frameSeqEvent, seqEventPayload(seq[:], 3, 0, 20, byte(events.Attach)))
		add(frameClosedHello, closedHelloPayload(byte(events.Gen4G), 77))
		add(frameStats, nil)
		add(frameAck, ackPayload(seq[:], 3))
	}))
	f.Add([]byte{byte(frameEvent), 0, 0})                      // torn header
	f.Add([]byte{byte(frameEvent), 0xff, 0xff, 0xff, 0xff, 1}) // oversized length
	f.Add(frames(func(add func(frameType, []byte)) {           // sequence gap
		add(frameClosedHello, closedHelloPayload(byte(events.Gen4G), 5))
		add(frameSeqEvent, seqEventPayload(seq[:], 9, 1, 0, byte(events.Attach)))
	}))
	// Two UE keys that differ only above bit 32: two UEs, both connected.
	twoUEs := frames(func(add func(frameType, []byte)) {
		add(frameHello, []byte{byte(events.Gen4G)})
		add(frameEvent, eventFrame(ev[:], 1, 0, byte(events.Attach))[5:])
		add(frameEvent, eventFrame(ev[:], 1|1<<32, 10, byte(events.Attach))[5:])
	})
	f.Add(twoUEs)

	f.Fuzz(func(t *testing.T, data []byte) {
		s := &Server{
			gen:      events.Gen4G,
			tally:    statemachine.NewTally(statemachine.New(events.Gen4G)),
			sessions: make(map[uint64]*session),
		}
		s.stats.ByType = make(map[string]int)
		peer, conn := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			s.serveConn(conn)
		}()
		// The peer's read side: everything the server answers, ACKs checked.
		acks := make(chan string, 1)
		go func() {
			var last uint64
			verdict := ""
			for {
				ft, payload, err := readFrame(peer)
				if err != nil {
					acks <- verdict
					return
				}
				if ft == frameAck && len(payload) == 8 {
					if a := binary.BigEndian.Uint64(payload); a < last {
						verdict = "cumulative ACK went backwards"
					} else {
						last = a
					}
				}
			}
		}()
		_, _ = peer.Write(data) // fails once the server has hung up: fine
		// Half-close is not a pipe's to give: the server sees EOF, and the
		// reader above the closed pipe, once everything sent is consumed.
		peer.Close()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("serveConn did not return after the peer closed")
		}
		if v := <-acks; v != "" {
			t.Fatal(v)
		}
		st := s.Snapshot()
		if st.Rejected > st.Events || st.ConnectedUEs < 0 || st.PeakConnectedUEs < st.ConnectedUEs {
			t.Fatalf("accounting broke: %+v", st)
		}
		if bytes.Equal(data, twoUEs) && (st.Rejected != 0 || st.ConnectedUEs != 2) {
			t.Fatalf("keys 1 and 1<<32|1 served as one UE: %+v", st)
		}
	})
}
