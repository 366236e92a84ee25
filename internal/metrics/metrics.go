// Package metrics computes the fidelity metrics of Table 2 — semantic
// violations, sojourn-time distributions, event-type breakdown, flow-length
// distributions — plus the n-gram memorization audit of §5.6. All
// distribution comparisons use the maximum vertical CDF distance (the
// two-sample KS statistic), matching the paper's reporting.
package metrics

import (
	"cptgpt/internal/events"
	"cptgpt/internal/statemachine"
	"cptgpt/internal/stats"
	"cptgpt/internal/trace"
)

// Replay feeds every stream of the dataset through the generation's UE
// state machine, stream i as UE i, and returns the tally of violations and
// sojourns. Every stream counts as a UE, one with no events included: that
// is the denominator of Table 5's stream violation rate.
func Replay(d *trace.Dataset) *statemachine.Tally {
	t := statemachine.NewTally(statemachine.New(d.Generation))
	for i := range d.Streams {
		for _, e := range d.Streams[i].Events {
			t.Observe(uint64(i), e.Type, e.Time)
		}
	}
	t.UEs = len(d.Streams)
	return t
}

// ViolationShare is one Table 3 row: a (state, event) pair and its share of
// counted events.
type ViolationShare struct {
	State statemachine.State
	Event events.Type
	Share float64
}

// Fidelity bundles every fidelity metric comparing a synthesized dataset
// against a reference ("real") dataset.
type Fidelity struct {
	// EventViolation is the fraction of events violating the state machine.
	EventViolation float64
	// StreamViolation is the fraction of streams with ≥ 1 violating event.
	StreamViolation float64
	// TopViolations lists the highest-frequency violating (state, event)
	// pairs (Table 3).
	TopViolations []ViolationShare

	// SojournConnMaxY / SojournIdleMaxY are the max CDF y-distances between
	// the per-UE mean sojourn-time distributions (CONNECTED / IDLE).
	SojournConnMaxY float64
	SojournIdleMaxY float64

	// FlowLenMaxY / FlowLenSrvReqMaxY / FlowLenRelMaxY are the max CDF
	// y-distances of the flow-length distributions: all events, SRV_REQ
	// only and S1_CONN_REL (AN_REL in 5G) only — the three Table 6 rows.
	FlowLenMaxY       float64
	FlowLenSrvReqMaxY float64
	FlowLenRelMaxY    float64

	// BreakdownReal / BreakdownSynth are the event-type shares (vocabulary
	// order); BreakdownDiff is synth − real per type (Table 7).
	BreakdownReal  []float64
	BreakdownSynth []float64
	BreakdownDiff  []float64
	// AvgAbsBreakdownDiff is the mean |diff| over event types.
	AvgAbsBreakdownDiff float64

	// Vocab labels the breakdown rows.
	Vocab []events.Type
}

// Evaluate computes the full fidelity suite of synth against real. Both
// datasets must share a generation.
func Evaluate(real, synth *trace.Dataset) Fidelity {
	return EvaluateWithReplay(real, synth, Replay(real), Replay(synth))
}

// EvaluateWithReplay is Evaluate with pre-computed replays, letting callers
// that already replayed (e.g. the experiment harness) avoid doing it twice.
func EvaluateWithReplay(real, synth *trace.Dataset, realAgg, synthAgg *statemachine.Tally) Fidelity {
	var f Fidelity
	f.EventViolation = synthAgg.EventViolationRate()
	f.StreamViolation = synthAgg.StreamViolationRate()
	keys, shares := synthAgg.TopViolations(3)
	for i, k := range keys {
		f.TopViolations = append(f.TopViolations, ViolationShare{State: k.State, Event: k.Event, Share: shares[i]})
	}

	conn, idle := statemachine.TopConnected, statemachine.TopIdle
	f.SojournConnMaxY = stats.MaxYDistance(realAgg.MeanSojourns(conn), synthAgg.MeanSojourns(conn))
	f.SojournIdleMaxY = stats.MaxYDistance(realAgg.MeanSojourns(idle), synthAgg.MeanSojourns(idle))

	f.FlowLenMaxY = stats.MaxYDistance(real.FlowLengths(nil), synth.FlowLengths(nil))
	srv := events.ServiceRequest
	rel := releaseEvent(real.Generation)
	f.FlowLenSrvReqMaxY = stats.MaxYDistance(real.FlowLengths(&srv), synth.FlowLengths(&srv))
	f.FlowLenRelMaxY = stats.MaxYDistance(real.FlowLengths(&rel), synth.FlowLengths(&rel))

	f.BreakdownReal, f.Vocab = real.EventBreakdown()
	f.BreakdownSynth, _ = synth.EventBreakdown()
	f.BreakdownDiff = make([]float64, len(f.BreakdownReal))
	var sum float64
	for i := range f.BreakdownDiff {
		f.BreakdownDiff[i] = f.BreakdownSynth[i] - f.BreakdownReal[i]
		sum += abs(f.BreakdownDiff[i])
	}
	if n := len(f.BreakdownDiff); n > 0 {
		f.AvgAbsBreakdownDiff = sum / float64(n)
	}
	return f
}

// releaseEvent returns the connection-release event of the generation
// (S1_CONN_REL for 4G, AN_REL for 5G).
func releaseEvent(g events.Generation) events.Type {
	if g == events.Gen5G {
		return events.ANRel
	}
	return events.S1ConnRel
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
