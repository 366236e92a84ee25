package experiments

import (
	"fmt"
	"math"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/metrics"
	"cptgpt/internal/statemachine"
	"cptgpt/internal/trace"
)

// statemachineAgg aliases the replay tally for readability in the figure
// definitions.
type statemachineAgg = statemachine.Tally

// Table3 reproduces "Semantic violations in control-plane traffic
// synthesized by NetShare": event/stream violation percentages and the top
// three (state, event) violation pairs, for phones.
func Table3(l *Lab) (*Report, error) {
	gen, err := l.Generated(GenNetShare, events.Phone)
	if err != nil {
		return nil, err
	}
	agg := metrics.Replay(gen)

	t := &Table{Title: "NetShare semantic violations (phones)", Header: []string{"metric", "value"}}
	t.AddRow("Perc. event violations", pct(agg.EventViolationRate()))
	t.AddRow("Perc. streams w/ at least one violating event", pct(agg.StreamViolationRate()))
	keys, shares := agg.TopViolations(3)
	for i, k := range keys {
		t.AddRow(fmt.Sprintf("top-%d violation: %s, %s", i+1, k.State, k.Event), pct(shares[i]))
	}
	return &Report{
		ID:      "table3",
		Caption: "Semantic violations in NetShare-synthesized traffic",
		Tables:  []*Table{t},
		Notes: []string{
			"paper: 2.61% event violations, 22.10% stream violations; top pairs (S1_REL_S, S1_CONN_REL), (S1_REL_S, HO), (CONNECTED, SRV_REQ)",
		},
	}, nil
}

// Figure2 reproduces the CDF of the per-UE mean CONNECTED sojourn time for
// phones: Real vs NetShare vs CPT-GPT, reported as quantile rows.
func Figure2(l *Lab) (*Report, error) {
	real, err := l.Test(events.Phone)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Mean CONNECTED sojourn per UE, seconds (phones)",
		Header: qsHeader("curve"),
	}
	t.AddRow(qsRow("Real", metrics.Replay(real).MeanSojourns(statemachine.TopConnected), secs)...)
	for _, id := range []GeneratorID{GenNetShare, GenCPTGPT} {
		gen, err := l.Generated(id, events.Phone)
		if err != nil {
			return nil, err
		}
		t.AddRow(qsRow(string(id), metrics.Replay(gen).MeanSojourns(statemachine.TopConnected), secs)...)
	}
	nsF, cgF, err := l.twoFidelities(events.Phone)
	if err != nil {
		return nil, err
	}
	return &Report{
		ID:      "figure2",
		Caption: "CONNECTED sojourn-time CDFs: Real vs NetShare vs CPT-GPT (phones)",
		Tables:  []*Table{t},
		Notes: []string{
			fmt.Sprintf("max y-distance vs real: NetShare %s, CPT-GPT %s (paper: 27.9%% and 6.4%%)",
				pct(nsF.SojournConnMaxY), pct(cgF.SojournConnMaxY)),
		},
	}, nil
}

// twoFidelities evaluates NetShare and CPT-GPT against the test trace.
func (l *Lab) twoFidelities(dev events.DeviceType) (ns, cg metrics.Fidelity, err error) {
	real, err := l.Test(dev)
	if err != nil {
		return ns, cg, err
	}
	nsGen, err := l.Generated(GenNetShare, dev)
	if err != nil {
		return ns, cg, err
	}
	cgGen, err := l.Generated(GenCPTGPT, dev)
	if err != nil {
		return ns, cg, err
	}
	return metrics.Evaluate(real, nsGen), metrics.Evaluate(real, cgGen), nil
}

// Table5 reproduces the per-device-type violation comparison between
// NetShare and CPT-GPT. SMM rows are omitted as in the paper (zero by
// construction).
func Table5(l *Lab) (*Report, error) {
	t := &Table{
		Title:  "Stateful semantic violations (SMM omitted: zero by construction)",
		Header: []string{"device", "NetShare events", "CPT-GPT events", "NetShare streams", "CPT-GPT streams"},
	}
	for _, dev := range events.DeviceTypes() {
		nsGen, err := l.Generated(GenNetShare, dev)
		if err != nil {
			return nil, err
		}
		cgGen, err := l.Generated(GenCPTGPT, dev)
		if err != nil {
			return nil, err
		}
		nsAgg, cgAgg := metrics.Replay(nsGen), metrics.Replay(cgGen)
		t.AddRow(dev.String(),
			pct3(nsAgg.EventViolationRate()), pct3(cgAgg.EventViolationRate()),
			pct(nsAgg.StreamViolationRate()), pct(cgAgg.StreamViolationRate()))
	}
	return &Report{
		ID:      "table5",
		Caption: "Percentage of events and streams violating 3GPP stateful semantics",
		Tables:  []*Table{t},
		Notes: []string{
			"paper events: NetShare 2.614/3.915/3.572%, CPT-GPT 0.004/0.034/0.079%",
			"paper streams: NetShare 22.1/11.5/16.9%, CPT-GPT 0.2/0.4/1.5%",
		},
	}, nil
}

// Table6 reproduces the max-y-distance grid: sojourn times (CONNECTED,
// IDLE) and flow lengths (all, SRV_REQ, S1_CONN_REL) for the four
// generators across the three device types.
func Table6(l *Lab) (*Report, error) {
	rows := []struct {
		name string
		get  func(metrics.Fidelity) float64
	}{
		{"Sojourn CONNECTED", func(f metrics.Fidelity) float64 { return f.SojournConnMaxY }},
		{"Sojourn IDLE", func(f metrics.Fidelity) float64 { return f.SojournIdleMaxY }},
		{"Flow length (all)", func(f metrics.Fidelity) float64 { return f.FlowLenMaxY }},
		{"Flow length (SRV_REQ)", func(f metrics.Fidelity) float64 { return f.FlowLenSrvReqMaxY }},
		{"Flow length (S1_CONN_REL)", func(f metrics.Fidelity) float64 { return f.FlowLenRelMaxY }},
	}
	rep := &Report{
		ID:      "table6",
		Caption: "Maximum y-distance between real and synthesized CDFs",
		Notes: []string{
			"paper (phones, CONNECTED sojourn): SMM-1 40.1%, SMM-20k 14.8%, NetShare 27.9%, CPT-GPT 6.4%",
			"paper (phones, flow length all): SMM-1 44.2%, SMM-20k 1.9%, NetShare 1.6%, CPT-GPT 3.8%",
		},
	}
	for _, dev := range events.DeviceTypes() {
		real, err := l.Test(dev)
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title:  fmt.Sprintf("Max CDF y-distance — %s", dev),
			Header: []string{"metric", "SMM-1", "SMM-K", "NetShare", "CPT-GPT"},
		}
		fids := make(map[GeneratorID]metrics.Fidelity)
		for _, id := range AllGenerators() {
			gen, err := l.Generated(id, dev)
			if err != nil {
				return nil, err
			}
			fids[id] = metrics.Evaluate(real, gen)
		}
		for _, r := range rows {
			t.AddRow(r.name,
				pct(r.get(fids[GenSMM1])), pct(r.get(fids[GenSMMK])),
				pct(r.get(fids[GenNetShare])), pct(r.get(fids[GenCPTGPT])))
		}
		rep.Tables = append(rep.Tables, t)
	}
	return rep, nil
}

// Figure5 reproduces the CDF grid behind Table 6: for each device type and
// metric, the quantiles of every generator's distribution next to the real
// one.
func Figure5(l *Lab) (*Report, error) {
	rep := &Report{
		ID:      "figure5",
		Caption: "Distributions of fidelity metrics (quantile view of the paper's CDF grid)",
	}
	type metricDef struct {
		name   string
		format func(float64) string
		get    func(*trace.Dataset, *statemachineAgg) []float64
	}
	srv := events.ServiceRequest
	rel := events.S1ConnRel
	defs := []metricDef{
		{"Sojourn CONNECTED (s)", secs, func(d *trace.Dataset, a *statemachineAgg) []float64 { return a.MeanSojourns(statemachine.TopConnected) }},
		{"Sojourn IDLE (s)", secs, func(d *trace.Dataset, a *statemachineAgg) []float64 { return a.MeanSojourns(statemachine.TopIdle) }},
		{"Flow length (all)", count, func(d *trace.Dataset, a *statemachineAgg) []float64 { return d.FlowLengths(nil) }},
		{"Flow length (SRV_REQ)", count, func(d *trace.Dataset, a *statemachineAgg) []float64 { return d.FlowLengths(&srv) }},
		{"Flow length (S1_CONN_REL)", count, func(d *trace.Dataset, a *statemachineAgg) []float64 { return d.FlowLengths(&rel) }},
	}
	for _, dev := range events.DeviceTypes() {
		real, err := l.Test(dev)
		if err != nil {
			return nil, err
		}
		curves := []struct {
			name string
			d    *trace.Dataset
		}{{"Real", real}}
		for _, id := range AllGenerators() {
			gen, err := l.Generated(id, dev)
			if err != nil {
				return nil, err
			}
			curves = append(curves, struct {
				name string
				d    *trace.Dataset
			}{string(id), gen})
		}
		// Replay each curve's dataset once, reusing across the metric defs.
		aggs := make([]*statemachineAgg, len(curves))
		for i, c := range curves {
			aggs[i] = metrics.Replay(c.d)
		}
		for _, def := range defs {
			t := &Table{
				Title:  fmt.Sprintf("%s — %s", def.name, dev),
				Header: qsHeader("curve"),
			}
			for i, c := range curves {
				t.AddRow(qsRow(c.name, def.get(c.d, aggs[i]), def.format)...)
			}
			rep.Tables = append(rep.Tables, t)
		}
	}
	return rep, nil
}

// Table7 reproduces the event-type breakdown: the real shares and each
// generator's signed difference from them, per device type.
func Table7(l *Lab) (*Report, error) {
	rep := &Report{
		ID:      "table7",
		Caption: "Event-type breakdown: real share and per-generator difference",
		Notes: []string{
			"paper (phones): real SRV_REQ 47.06%, S1_CONN_REL 48.25%; CPT-GPT diffs within ±0.66%",
		},
	}
	for _, dev := range events.DeviceTypes() {
		real, err := l.Test(dev)
		if err != nil {
			return nil, err
		}
		t := &Table{
			Title:  fmt.Sprintf("Event breakdown — %s", dev),
			Header: []string{"event", "Real", "SMM-1", "SMM-K", "NetShare", "CPT-GPT"},
		}
		fids := make(map[GeneratorID]metrics.Fidelity)
		for _, id := range AllGenerators() {
			gen, err := l.Generated(id, dev)
			if err != nil {
				return nil, err
			}
			fids[id] = metrics.Evaluate(real, gen)
		}
		vocab := events.Vocabulary(events.Gen4G)
		realShares, _ := real.EventBreakdown()
		for i, ev := range vocab {
			t.AddRow(ev.String(), pct(realShares[i]),
				signedPct(fids[GenSMM1].BreakdownDiff[i]),
				signedPct(fids[GenSMMK].BreakdownDiff[i]),
				signedPct(fids[GenNetShare].BreakdownDiff[i]),
				signedPct(fids[GenCPTGPT].BreakdownDiff[i]))
		}
		rep.Tables = append(rep.Tables, t)
	}
	return rep, nil
}

// Table11 reproduces the data-memorization audit: the fraction of n-grams
// in CPT-GPT-generated traffic that repeat a training n-gram, for
// n ∈ {5, 10, 20} and tolerance ε ∈ {10%, 20%}.
func Table11(l *Lab) (*Report, error) {
	train, err := l.Train(events.Phone)
	if err != nil {
		return nil, err
	}
	m, err := l.CPT(events.Phone)
	if err != nil {
		return nil, err
	}
	gen, err := m.Generate(cptgpt.GenOpts{
		NumStreams: l.sz.memStreams,
		Device:     events.Phone,
		Seed:       l.Seed ^ 0x111E,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Percentage of generated n-grams repeated from the training set (phones)",
		Header: []string{"n", "eps=10%", "eps=20%"},
	}
	for _, n := range []int{5, 10, 20} {
		row := []string{fmt.Sprintf("n=%d", n)}
		for _, eps := range []float64{0.10, 0.20} {
			r, err := metrics.Memorization(gen, train, n, eps)
			if err != nil {
				return nil, err
			}
			row = append(row, pct3(r.Rate()))
		}
		t.AddRow(row...)
	}
	return &Report{
		ID:      "table11",
		Caption: "Data memorization: n-gram repetition from the training set",
		Tables:  []*Table{t},
		Notes: []string{
			"paper: n=5 57.9/80.3%, n=10 0.003/0.287%, n=20 0.000/0.000%",
			"short n-grams repeat because the 3GPP protocol constrains them (e.g. SRV_REQ/S1_CONN_REL alternation), not because of memorization",
		},
	}, nil
}

// Figure6 reproduces the scalability study: fidelity versus generated
// population size (multiples of the base evaluation size).
func Figure6(l *Lab) (*Report, error) {
	real, err := l.Test(events.Phone)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fidelity vs generated UE population (CPT-GPT, phones)",
		Header: []string{"UE count", "event viol", "stream viol", "sojourn CONN", "sojourn IDLE", "flow length", "breakdown diff"},
	}
	for _, mult := range l.sz.scaleMults {
		n := l.sz.evalUEs * mult
		gen, err := l.GeneratedN(GenCPTGPT, events.Phone, n)
		if err != nil {
			return nil, err
		}
		f := metrics.Evaluate(real, gen)
		t.AddRow(fmt.Sprintf("%d", n),
			pct3(f.EventViolation), pct(f.StreamViolation),
			pct(f.SojournConnMaxY), pct(f.SojournIdleMaxY),
			pct(f.FlowLenMaxY), pct(f.AvgAbsBreakdownDiff))
	}
	return &Report{
		ID:      "figure6",
		Caption: "Fidelity of synthesized datasets for varying UE population",
		Tables:  []*Table{t},
		Notes: []string{
			"paper: dataset size (10k–160k UEs) has minimal influence on all fidelity metrics",
			"the real comparison set is fixed at the full test trace; the paper sampled equal-size subsets from a 380k-UE pool",
		},
	}, nil
}

// Figure7 reproduces the interarrival-time distribution view: quantiles of
// raw interarrivals and of their log1p transform, showing how log scaling
// un-skews the heavy tail (the rationale for Design 1's scaling).
func Figure7(l *Lab) (*Report, error) {
	real, err := l.Train(events.Phone)
	if err != nil {
		return nil, err
	}
	ia := real.Interarrivals()
	logIA := make([]float64, len(ia))
	for i, x := range ia {
		logIA[i] = math.Log1p(x)
	}
	t := &Table{
		Title:  "Interarrival time distribution (phones)",
		Header: qsHeader("transform"),
	}
	t.AddRow(qsRow("t (seconds)", ia, secs)...)
	t.AddRow(qsRow("log(t+1)", logIA, func(v float64) string { return fmt.Sprintf("%.2f", v) })...)
	return &Report{
		ID:      "figure7",
		Caption: "Raw vs log-scaled interarrival-time distribution",
		Tables:  []*Table{t},
		Notes: []string{
			"paper: the raw distribution is long-tailed; log scaling makes it near-uniform, motivating the tokenizer's log1p + min-max scaling",
		},
	}, nil
}
