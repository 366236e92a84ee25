// Package replaynet replays control-plane traffic over TCP: a driver client
// writes a time-ordered event sequence onto the wire — at the pace of its
// source, which may be a wall-clock pacer — and an MCN-frontend server
// consumes it, tracking per-UE state and load. It gives the repository a
// real networked downstream consumer (the paper's motivating use case of
// driving MCN implementations with synthesized traffic) built only on the
// standard library's net package.
//
// Wire format (all integers big-endian):
//
//	frame   := type(1) length(4) payload(length)
//	HELLO   := type 'H', payload = generation byte
//	EVENT   := type 'E', payload = ue(8) timeMicros(8) eventType(1)
//	STATS   := type 'S', payload empty (request) — server answers with a
//	           REPORT frame
//	REPORT  := type 'R', payload = JSON-encoded Stats
//	BYE     := type 'B', payload empty
//
// ue is the source's 64-bit UE key (trace.Arrival.UE) as is, so a UE is the
// same UE to the server whichever driver, connection or resumed incarnation
// carries its events.
//
// The closed-loop extension adds acknowledged, sequenced delivery on top;
// the open-loop frames above are untouched by it:
//
//	CHELLO  := type 'C', payload = generation(1) sessionID(8) — closed-loop
//	           hello; the server creates or resumes the session and answers
//	           with an ACK frame carrying the session's applied sequence
//	           number, from which the client resumes without duplication
//	SEVENT  := type 'Q', payload = seq(8) ue(8) timeMicros(8) eventType(1)
//	           — a sequenced event; seq starts at 1 and increases by 1
//	ACK     := type 'A', payload = appliedSeq(8) — cumulative: every event
//	           with seq ≤ appliedSeq has been applied exactly once
package replaynet

import (
	"encoding/binary"
	"fmt"
	"io"
)

// frameType tags a wire frame.
type frameType byte

const (
	frameHello       frameType = 'H'
	frameEvent       frameType = 'E'
	frameStats       frameType = 'S'
	frameReport      frameType = 'R'
	frameBye         frameType = 'B'
	frameClosedHello frameType = 'C'
	frameSeqEvent    frameType = 'Q'
	frameAck         frameType = 'A'
)

// maxFrame bounds payload sizes to keep a malformed peer from forcing huge
// allocations.
const maxFrame = 1 << 20

// writeFrame emits one frame.
func writeFrame(w io.Writer, t frameType, payload []byte) error {
	var hdr [5]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("replaynet: writing frame header: %w", err)
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return fmt.Errorf("replaynet: writing frame payload: %w", err)
		}
	}
	return nil
}

// readFrame reads one frame into a payload of its own.
func readFrame(r io.Reader) (frameType, []byte, error) { return readFrameInto(r, nil) }

// readFrameInto reads one frame into buf's storage — the header, then the
// payload when it fits (else into a new slice) — so the payload it returns
// lasts until the next read into buf. A read loop passes back the payload
// it was last handed, and its buffer grows to the largest frame once.
func readFrameInto(r io.Reader, buf []byte) (frameType, []byte, error) {
	if cap(buf) < 5 {
		buf = make([]byte, 32)
	}
	hdr := buf[:5]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err // propagate io.EOF unchanged for clean shutdown
	}
	t, n := frameType(hdr[0]), binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("replaynet: frame of %d bytes exceeds limit", n)
	}
	if int(n) > cap(buf) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("replaynet: reading frame payload: %w", err)
	}
	return t, payload, nil
}

// eventPayload encodes an EVENT frame payload.
func eventPayload(ue uint64, timeMicros int64, ev byte) []byte {
	buf := make([]byte, 17)
	binary.BigEndian.PutUint64(buf[0:8], ue)
	binary.BigEndian.PutUint64(buf[8:16], uint64(timeMicros))
	buf[16] = ev
	return buf
}

// decodeEvent decodes an EVENT frame payload.
func decodeEvent(payload []byte) (ue uint64, timeMicros int64, ev byte, err error) {
	if len(payload) != 17 {
		return 0, 0, 0, fmt.Errorf("replaynet: EVENT payload is %d bytes, want 17", len(payload))
	}
	return binary.BigEndian.Uint64(payload[0:8]),
		int64(binary.BigEndian.Uint64(payload[8:16])),
		payload[16], nil
}

// seqEventPayload encodes a SEVENT frame payload into buf (≥ 25 bytes).
func seqEventPayload(buf []byte, seq, ue uint64, timeMicros int64, ev byte) []byte {
	binary.BigEndian.PutUint64(buf[0:8], seq)
	binary.BigEndian.PutUint64(buf[8:16], ue)
	binary.BigEndian.PutUint64(buf[16:24], uint64(timeMicros))
	buf[24] = ev
	return buf[:25]
}

// seqEventFrame encodes a whole SEVENT frame into buf (≥ 30 bytes): the
// bytes writeFrame writes for seqEventPayload's payload, in one piece.
func seqEventFrame(buf []byte, seq, ue uint64, timeMicros int64, ev byte) []byte {
	buf[0] = byte(frameSeqEvent)
	binary.BigEndian.PutUint32(buf[1:5], 25)
	seqEventPayload(buf[5:], seq, ue, timeMicros, ev)
	return buf[:30]
}

// decodeSeqEvent decodes a SEVENT frame payload.
func decodeSeqEvent(payload []byte) (seq, ue uint64, timeMicros int64, ev byte, err error) {
	if len(payload) != 25 {
		return 0, 0, 0, 0, fmt.Errorf("replaynet: SEVENT payload is %d bytes, want 25", len(payload))
	}
	return binary.BigEndian.Uint64(payload[0:8]),
		binary.BigEndian.Uint64(payload[8:16]),
		int64(binary.BigEndian.Uint64(payload[16:24])),
		payload[24], nil
}

// closedHelloPayload encodes a CHELLO frame payload.
func closedHelloPayload(gen byte, sessionID uint64) []byte {
	buf := make([]byte, 9)
	buf[0] = gen
	binary.BigEndian.PutUint64(buf[1:9], sessionID)
	return buf
}

// decodeClosedHello decodes a CHELLO frame payload.
func decodeClosedHello(payload []byte) (gen byte, sessionID uint64, err error) {
	if len(payload) != 9 {
		return 0, 0, fmt.Errorf("replaynet: CHELLO payload is %d bytes, want 9", len(payload))
	}
	return payload[0], binary.BigEndian.Uint64(payload[1:9]), nil
}

// ackPayload encodes an ACK frame payload into buf (≥ 8 bytes).
func ackPayload(buf []byte, appliedSeq uint64) []byte {
	binary.BigEndian.PutUint64(buf[0:8], appliedSeq)
	return buf[:8]
}

// decodeAck decodes an ACK frame payload.
func decodeAck(payload []byte) (appliedSeq uint64, err error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("replaynet: ACK payload is %d bytes, want 8", len(payload))
	}
	return binary.BigEndian.Uint64(payload), nil
}
