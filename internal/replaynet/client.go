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

// ReplayOpts tunes a driver run.
type ReplayOpts struct {
	// Speedup divides trace time: 60 replays an hour of trace in a minute.
	// A Speedup ≤ 0 replays as fast as the connection allows (no pacing).
	Speedup float64
}

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

// schedule maps trace time to the wall clock at a speedup: the first event
// asked about is due now, and anchors both clocks.
type schedule struct {
	speedup float64
	started bool
	start   time.Time
	t0      float64
}

func (s *schedule) due(t float64) time.Time {
	if !s.started {
		s.started, s.start, s.t0 = true, time.Now(), t
	}
	return s.start.Add(time.Duration((t - s.t0) / s.speedup * float64(time.Second)))
}

// onIdle registers flush with a source that paces itself (see
// trace.ArrivalSource): the drivers' "flush before every wait" contract has
// to hold for a wait hidden inside NextArrival too.
func onIdle(src trace.ArrivalSource, flush func()) {
	if p, ok := src.(interface{ OnIdle(func()) }); ok {
		p.OnIdle(flush)
	}
}

// Replay connects to a replaynet server at addr, paces the dataset's merged
// event sequence (Dataset.Arrivals) onto the wire and returns the server's
// final stats.
func Replay(addr string, d *trace.Dataset, opts ReplayOpts) (Stats, error) {
	return ReplayStream(addr, d.Generation, d.Arrivals(), opts)
}

// ReplayStream connects to a replaynet server at addr and paces a
// time-ordered event sequence pulled incrementally from src onto the wire —
// the streaming counterpart of Replay that the scenario engine uses to
// drive a server with million-UE workloads in bounded memory. 64-bit UE
// keys are mapped to the protocol's 32-bit UE indices in first-seen order.
func ReplayStream(addr string, gen events.Generation, src trace.ArrivalSource, opts ReplayOpts) (Stats, error) {
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
	sched := schedule{speedup: opts.Speedup}
	// The writer is buffered for throughput, but a paced replay must not let
	// events sit in the buffer while the pacer sleeps — the server would see
	// them in bursts a flush interval late instead of on their schedule. So
	// the buffer is flushed before every pacing sleep, the source's own
	// included (onIdle), and, on unpaced or densely-paced stretches, at least
	// every flushEvery of wall time.
	const flushEvery = 50 * time.Millisecond
	lastFlush := time.Now()
	flush := func() error {
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("replaynet: flushing: %w", err)
		}
		lastFlush = time.Now()
		return nil
	}
	// A failed flush sticks in bw: the loop's next one reports it.
	onIdle(src, func() { _ = flush() })
	for {
		ev, ok, err := src.NextArrival()
		if err != nil {
			return Stats{}, fmt.Errorf("replaynet: event source: %w", err)
		}
		if !ok {
			break
		}
		if opts.Speedup > 0 {
			if wait := time.Until(sched.due(ev.Time)); wait > 0 {
				if err := flush(); err != nil {
					return Stats{}, err
				}
				time.Sleep(wait)
			}
		}
		if time.Since(lastFlush) >= flushEvery {
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
