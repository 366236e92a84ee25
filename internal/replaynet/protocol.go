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
//	EVENT   := type 'E', payload = ueIdx(4) timeMicros(8) eventType(1)
//	STATS   := type 'S', payload empty (request) — server answers with a
//	           REPORT frame
//	REPORT  := type 'R', payload = JSON-encoded Stats
//	BYE     := type 'B', payload empty
//
// The closed-loop extension (PR 7) adds acknowledged, sequenced delivery on
// top — the open-loop frames above are untouched and the open-loop wire
// byte stream is byte-identical to before:
//
//	CHELLO  := type 'C', payload = generation(1) sessionID(8) — closed-loop
//	           hello; the server creates or resumes the session and answers
//	           with an ACK frame carrying the session's applied sequence
//	           number, from which the client resumes without duplication
//	SEVENT  := type 'Q', payload = seq(8) ueIdx(4) timeMicros(8) eventType(1)
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

// readFrame reads one frame.
func readFrame(r io.Reader) (frameType, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err // propagate io.EOF unchanged for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("replaynet: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("replaynet: reading frame payload: %w", err)
	}
	return frameType(hdr[0]), payload, nil
}

// eventPayload encodes an EVENT frame payload.
func eventPayload(ueIdx uint32, timeMicros int64, ev byte) []byte {
	buf := make([]byte, 13)
	binary.BigEndian.PutUint32(buf[0:4], ueIdx)
	binary.BigEndian.PutUint64(buf[4:12], uint64(timeMicros))
	buf[12] = ev
	return buf
}

// decodeEvent decodes an EVENT frame payload.
func decodeEvent(payload []byte) (ueIdx uint32, timeMicros int64, ev byte, err error) {
	if len(payload) != 13 {
		return 0, 0, 0, fmt.Errorf("replaynet: EVENT payload is %d bytes, want 13", len(payload))
	}
	return binary.BigEndian.Uint32(payload[0:4]),
		int64(binary.BigEndian.Uint64(payload[4:12])),
		payload[12], nil
}

// seqEventPayload encodes a SEVENT frame payload into buf (≥ 21 bytes).
func seqEventPayload(buf []byte, seq uint64, ueIdx uint32, timeMicros int64, ev byte) []byte {
	binary.BigEndian.PutUint64(buf[0:8], seq)
	binary.BigEndian.PutUint32(buf[8:12], ueIdx)
	binary.BigEndian.PutUint64(buf[12:20], uint64(timeMicros))
	buf[20] = ev
	return buf[:21]
}

// decodeSeqEvent decodes a SEVENT frame payload.
func decodeSeqEvent(payload []byte) (seq uint64, ueIdx uint32, timeMicros int64, ev byte, err error) {
	if len(payload) != 21 {
		return 0, 0, 0, 0, fmt.Errorf("replaynet: SEVENT payload is %d bytes, want 21", len(payload))
	}
	return binary.BigEndian.Uint64(payload[0:8]),
		binary.BigEndian.Uint32(payload[8:12]),
		int64(binary.BigEndian.Uint64(payload[12:20])),
		payload[20], nil
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
