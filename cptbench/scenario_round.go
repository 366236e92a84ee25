package main

import (
	"context"
	"sync/atomic"

	"cptgpt/internal/scenario"
	"cptgpt/internal/tracez"
)

// scenarioAcc sums what the traced rounds of an in-process scenario
// workload measured around Open and Drain.
type scenarioAcc struct {
	openS, drainS  float64
	spillLiveBytes int64
	nextNs, sinkNs float64
}

// drainScenario is one round of an in-process scenario run: open the spec
// (source, operators, sort/spill, merge fan-in reduction), then drain it
// through the count sink behind a checking tap.
func drainScenario(e *env, spec *scenario.Spec, opts scenario.RunOpts, traced bool, sm *smReplay, acc *scenarioAcc) (scenario.Summary, *tap, error) {
	if traced {
		tracez.Enable()
		defer tracez.Disable()
	}
	var spill atomic.Int64
	opts.TempDir = e.tmp
	opts.Budget.SpillUsed = &spill

	var st *scenario.Stream
	openDur, err := e.spans.in(e.root, "scenario.Spec.OpenContext", func(int) (err error) {
		st, err = spec.OpenContext(context.Background(), opts)
		return err
	})
	if err != nil {
		return scenario.Summary{}, nil, err
	}
	defer st.Close()
	live := spill.Load()

	tp := &tap{src: st, sm: sm, timed: traced}
	var sum scenario.Summary
	drainDur, err := e.spans.in(e.root, "scenario.Drain", func(int) (err error) {
		sum, err = scenario.Drain(tp)
		return err
	})
	if err != nil {
		return sum, tp, err
	}
	e.check("scenario.order", tp.disorder == 0, "%d of %d events out of (time, ue, seq) order", tp.disorder, tp.n)
	e.failed.Add(tp.disorder)
	e.check("scenario.summary_counts_tap", int64(sum.Events) == tp.n, "sink counted %d events, tap saw %d", sum.Events, tp.n)

	if traced {
		acc.openS += openDur.Seconds()
		acc.drainS += drainDur.Seconds()
		acc.spillLiveBytes += live
		next := tp.nextNanosPerEvent()
		acc.nextNs += next
		acc.sinkNs += float64(drainDur)/float64(max(tp.n, 1)) - next
	}
	return sum, tp, nil
}

func (a *scenarioAcc) layers(traced int, m map[string]float64) {
	n := float64(traced)
	m["scenario.open_s"] = a.openS / n
	m["scenario.drain_s"] = a.drainS / n
	m["scenario.spill_live_mb"] = float64(a.spillLiveBytes) / n / 1e6
	m["scenario.next_ns_per_event"] = a.nextNs / n
	m["scenario.sink_ns_per_event"] = a.sinkNs / n
}
