package scenario

import (
	"math"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/mcn"
	"cptgpt/internal/replaynet"
	"cptgpt/internal/trace"
	"cptgpt/internal/tracez"
)

// Summary aggregates a drained scenario stream in O(1) memory.
type Summary struct {
	// Events is the total emitted event count; ByType breaks it down.
	Events int
	ByType [events.NumTypes]int
	// FirstTime/LastTime bound the emitted timestamps.
	FirstTime float64
	LastTime  float64
	// PeakRate is the highest event rate (events/s) over any aligned
	// 60-second window; PeakWindowStart is that window's start. Only windows
	// that hold events are metered: an empty one has rate 0 and can never be
	// the peak.
	PeakRate        float64
	PeakWindowStart float64
}

// summaryWindow is the rate-metering window width for Summary.PeakRate.
const summaryWindow = 60.0

// Drain consumes the source to exhaustion, returning its summary — the
// "count" sink. It is also the cheapest way to force a full scenario run.
func Drain(st EventSource) (Summary, error) {
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	var sum Summary
	defer func() { sp.End(int64(sum.Events), sinkCount) }()
	var winStart float64
	winCount := 0
	first := true
	flush := func() {
		if rate := float64(winCount) / summaryWindow; rate > sum.PeakRate {
			sum.PeakRate = rate
			sum.PeakWindowStart = winStart
		}
	}
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		if first {
			sum.FirstTime = e.Time
			winStart = float64(int(e.Time/summaryWindow)) * summaryWindow
			first = false
		}
		if e.Time >= winStart+summaryWindow {
			// Past the current window: meter it and jump straight to the
			// event's window. The windows jumped over hold no events, so
			// they could not raise the peak. The fix-ups undo a rounding of
			// the division: winStart is the multiple of 60 that stepping one
			// window at a time would have reached.
			flush()
			winStart = math.Floor(e.Time/summaryWindow) * summaryWindow
			for winStart > e.Time {
				winStart -= summaryWindow
			}
			for e.Time >= winStart+summaryWindow {
				winStart += summaryWindow
			}
			winCount = 0
		}
		winCount++
		sum.Events++
		if e.Type.Valid() {
			sum.ByType[e.Type]++
		}
		sum.LastTime = e.Time
	}
	if !first {
		flush()
	}
	return sum, st.Err()
}

// arrivals presents an EventSource as the consumers' trace.ArrivalSource.
type arrivals struct{ st EventSource }

func (a arrivals) NextArrival() (trace.Arrival, bool, error) {
	e, ok := a.st.Next()
	if !ok {
		return trace.Arrival{}, false, a.st.Err()
	}
	return trace.Arrival{Time: e.Time, UE: e.UE, Type: e.Type}, true, nil
}

// OnIdle forwards a paced source's idle hook (Pacer.OnIdle) to the consumer.
func (a arrivals) OnIdle(fn func(until time.Time)) {
	if p, ok := a.st.(interface{ OnIdle(func(time.Time)) }); ok {
		p.OnIdle(fn)
	}
}

// RunMCN drains the source through the simulated mobile-core control-plane
// function — the scenario engine's flagship sink. Memory stays bounded by
// the MCN's per-UE state, never by the event count.
func RunMCN(st EventSource, cfg mcn.Config) (*mcn.Report, error) {
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	rep, err := mcn.RunStream(st.Generation(), arrivals{st}, cfg)
	if rep != nil {
		sp.End(int64(rep.Events), sinkMCN)
	} else {
		sp.End(0, sinkMCN)
	}
	return rep, err
}

// ReplaySLOSearch drives the stream against a replaynet server with the
// closed-loop SLO-search controller, ramping the offered event rate to find
// the maximum sustained load whose p99 transaction latency meets the SLO.
func ReplaySLOSearch(addr string, st EventSource, opts replaynet.ClosedOpts, search replaynet.SearchOpts) (replaynet.SearchResult, error) {
	return replaynet.SLOSearch(addr, st.Generation(), arrivals{st}, opts, search)
}
