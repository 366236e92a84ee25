package replaynet

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/trace"
)

// ueIndex maps the sources' 64-bit UE keys to the protocol's 32-bit UE
// indices, in first-seen order.
type ueIndex map[uint64]uint32

func (m ueIndex) of(ue uint64) uint32 {
	idx, seen := m[ue]
	if !seen {
		idx = uint32(len(m))
		m[ue] = idx
	}
	return idx
}

// flushInterval bounds how long a written event may sit in a driver's write
// buffer while events flow. Both drivers also flush before every wait of a
// source that paces itself (onIdle), the closed-loop one before its own
// waits too.
const flushInterval = 20 * time.Millisecond

// onIdle registers idle with a source that paces itself (see
// trace.ArrivalSource): the drivers' "flush before every wait" contract has
// to hold for a wait hidden inside NextArrival too. idle runs on the
// driver's goroutine before every such wait and must return by until.
func onIdle(src trace.ArrivalSource, idle func(until time.Time)) {
	if p, ok := src.(interface{ OnIdle(func(time.Time)) }); ok {
		p.OnIdle(idle)
	}
}

// Replay connects to a replaynet server at addr, writes the dataset's merged
// event sequence (Dataset.Arrivals) onto the wire as fast as the connection
// allows and returns the server's final stats.
func Replay(addr string, d *trace.Dataset) (Stats, error) {
	return ReplayStream(addr, d.Generation, d.Arrivals())
}

// ReplayStream connects to a replaynet server at addr and writes a
// time-ordered event sequence pulled incrementally from src onto the wire —
// the streaming counterpart of Replay that the scenario engine uses to
// drive a server with million-UE workloads in bounded memory. The driver
// does not pace: a source that paces itself (scenario.Pacer) sets the
// schedule. 64-bit UE keys are mapped to the protocol's 32-bit UE indices
// in first-seen order.
func ReplayStream(addr string, gen events.Generation, src trace.ArrivalSource) (Stats, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return Stats{}, fmt.Errorf("replaynet: dial %s: %w", addr, err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	br := bufio.NewReader(conn)

	if err := writeFrame(bw, frameHello, []byte{byte(gen)}); err != nil {
		return Stats{}, err
	}

	ues := make(ueIndex)
	// The writer is buffered for throughput, but a paced replay must not let
	// events sit in the buffer while the source sleeps — the server would
	// see them in bursts a flush interval late instead of on their schedule.
	// So the buffer is flushed before every wait of the source (onIdle) and,
	// while events flow, at least every flushInterval of wall time.
	lastFlush := time.Now()
	flush := func() error {
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("replaynet: flushing: %w", err)
		}
		lastFlush = time.Now()
		return nil
	}
	// A failed flush sticks in bw: the loop's next one reports it.
	onIdle(src, func(time.Time) { _ = flush() })
	for {
		ev, ok, err := src.NextArrival()
		if err != nil {
			return Stats{}, fmt.Errorf("replaynet: event source: %w", err)
		}
		if !ok {
			break
		}
		if time.Since(lastFlush) >= flushInterval {
			if err := flush(); err != nil {
				return Stats{}, err
			}
		}
		if err := writeFrame(bw, frameEvent, eventPayload(ues.of(ev.UE), int64(ev.Time*1e6), byte(ev.Type))); err != nil {
			return Stats{}, err
		}
	}

	// Ask for the final stats.
	if err := writeFrame(bw, frameStats, nil); err != nil {
		return Stats{}, err
	}
	if err := bw.Flush(); err != nil {
		return Stats{}, fmt.Errorf("replaynet: flushing: %w", err)
	}
	ft, payload, err := readFrame(br)
	if err != nil {
		return Stats{}, fmt.Errorf("replaynet: reading report: %w", err)
	}
	if ft != frameReport {
		return Stats{}, fmt.Errorf("replaynet: expected REPORT frame, got %q", byte(ft))
	}
	var st Stats
	if err := json.Unmarshal(payload, &st); err != nil {
		return Stats{}, fmt.Errorf("replaynet: decoding report: %w", err)
	}
	if err := writeFrame(bw, frameBye, nil); err == nil {
		_ = bw.Flush()
	}
	return st, nil
}
