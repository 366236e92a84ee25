package experiments

import (
	"fmt"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/metrics"
	"cptgpt/internal/netshare"
	"cptgpt/internal/trace"
)

// Table8 reproduces the sensitivity/ablation study: CPT-GPT trained with
// loss weights 1:1:1 (the default), 3:1:1, 1:3:1, 1:1:3, and with the
// distribution head disabled (predicting a single interarrival scalar with
// MSE instead of Gaussian parameters with NLL).
func Table8(l *Lab) (*Report, error) {
	real, err := l.Test(events.Phone)
	if err != nil {
		return nil, err
	}
	train, err := l.Train(events.Phone)
	if err != nil {
		return nil, err
	}
	tok := cptgpt.FitTokenizer(train)

	type variant struct {
		name    string
		weights [3]float64
		dist    bool
	}
	variants := []variant{
		{"1:1:1 (ours)", [3]float64{1, 1, 1}, true},
		{"3:1:1", [3]float64{3, 1, 1}, true},
		{"1:3:1", [3]float64{1, 3, 1}, true},
		{"1:1:3", [3]float64{1, 1, 3}, true},
		{"no dist. pred.", [3]float64{1, 1, 1}, false},
	}

	t := &Table{
		Title:  "CPT-GPT ablation: loss weights (event:arrival:stop) and distribution head",
		Header: []string{"variant", "event viol", "stream viol", "sojourn CONN", "sojourn IDLE", "flow length", "breakdown diff"},
	}
	for _, v := range variants {
		var m *cptgpt.Model
		if v.name == "1:1:1 (ours)" {
			// The default variant is exactly the lab's phone model.
			if m, err = l.CPT(events.Phone); err != nil {
				return nil, err
			}
		} else {
			cfg := l.cptConfig()
			cfg.LossWeights = v.weights
			cfg.DistHead = v.dist
			if m, err = cptgpt.NewModel(cfg, tok); err != nil {
				return nil, err
			}
			l.logf("ablation: training CPT-GPT variant %q", v.name)
			if _, err = cptgpt.Train(m, train, cptgpt.TrainOpts{}); err != nil {
				return nil, err
			}
		}
		gen, err := m.Generate(cptgpt.GenOpts{NumStreams: l.sz.evalUEs, Device: events.Phone, Seed: l.Seed ^ 0x8})
		if err != nil {
			return nil, err
		}
		f := metrics.Evaluate(real, gen)
		t.AddRow(v.name,
			pct3(f.EventViolation), pct(f.StreamViolation),
			pct(f.SojournConnMaxY), pct(f.SojournIdleMaxY),
			pct(f.FlowLenMaxY), pct(f.AvgAbsBreakdownDiff))
	}
	return &Report{
		ID:      "table8",
		Caption: "Loss-weight sensitivity and the distribution-head ablation",
		Tables:  []*Table{t},
		Notes: []string{
			"paper: loss weights barely matter (sojourn CONN 6.4–9.1% across weightings); removing the distribution head collapses fidelity (flow-length max-y 3.8% → 69.9%)",
		},
	}, nil
}

// TableLogScale is the Figure 7 companion ablation: CPT-GPT trained with
// the tokenizer's log1p interarrival scaling disabled (plain min-max over
// raw seconds). The paper's Appendix B argues log scaling un-skews the
// heavy-tailed interarrival distribution; without it most scaled values
// crowd near zero and the Gaussian head cannot resolve them.
func TableLogScale(l *Lab) (*Report, error) {
	real, err := l.Test(events.Phone)
	if err != nil {
		return nil, err
	}
	train, err := l.Train(events.Phone)
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  "CPT-GPT with and without log-scaled interarrival tokenization (phones)",
		Header: []string{"variant", "sojourn CONN", "sojourn IDLE", "flow length", "breakdown diff"},
	}
	for _, v := range []struct {
		name     string
		logScale bool
	}{{"log1p + min-max (ours)", true}, {"raw min-max", false}} {
		var m *cptgpt.Model
		if v.logScale {
			if m, err = l.CPT(events.Phone); err != nil {
				return nil, err
			}
		} else {
			tok := cptgpt.FitTokenizer(train)
			tok.LogScale = false
			// Refit bounds in raw-seconds space.
			tok.MinLog, tok.MaxLog = rawIABounds(train)
			if m, err = cptgpt.NewModel(l.cptConfig(), tok); err != nil {
				return nil, err
			}
			l.logf("ablation: training CPT-GPT without log scaling")
			if _, err = cptgpt.Train(m, train, cptgpt.TrainOpts{}); err != nil {
				return nil, err
			}
		}
		gen, err := m.Generate(cptgpt.GenOpts{NumStreams: l.sz.evalUEs, Device: events.Phone, Seed: l.Seed ^ 0x10a})
		if err != nil {
			return nil, err
		}
		f := metrics.Evaluate(real, gen)
		t.AddRow(v.name, pct(f.SojournConnMaxY), pct(f.SojournIdleMaxY),
			pct(f.FlowLenMaxY), pct(f.AvgAbsBreakdownDiff))
	}
	return &Report{
		ID:      "ablation-logscale",
		Caption: "Extension: the tokenizer's log scaling matters for heavy-tailed interarrivals (Figure 7 rationale)",
		Tables:  []*Table{t},
	}, nil
}

// rawIABounds returns the min/max raw interarrival across the dataset.
func rawIABounds(d *trace.Dataset) (lo, hi float64) {
	lo, hi = 0, 1
	first := true
	for i := range d.Streams {
		ia := d.Streams[i].Interarrivals()
		for _, x := range ia[min(len(ia), 1):] {
			if first {
				lo, hi = x, x
				first = false
				continue
			}
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
	}
	if hi-lo < 1e-9 {
		hi = lo + 1
	}
	return lo, hi
}

// TableNetShareBatchGen is an extension ablation (not in the paper's tables
// but motivated by its L4 discussion): how NetShare's batch-generation size
// S affects semantic correctness — larger batches sacrifice more intra-batch
// dependency.
func TableNetShareBatchGen(l *Lab) (*Report, error) {
	real, err := l.Test(events.Phone)
	if err != nil {
		return nil, err
	}
	train, err := l.Train(events.Phone)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "NetShare batch-generation size S vs fidelity (phones)",
		Header: []string{"S", "event viol", "stream viol", "flow length", "breakdown diff"},
	}
	for _, s := range []int{2, 5, 10} {
		cfg := l.nsConfig()
		cfg.BatchGen = s
		cfg.Steps = 60 / s // hold MaxLen at 60
		m, err := netshare.New(cfg)
		if err != nil {
			return nil, err
		}
		val := train.Sample(150)
		probe := l.probeFor(val, func() (*trace.Dataset, error) {
			return m.Generate(netshare.GenOpts{NumStreams: 120, Device: events.Phone, Seed: l.Seed ^ 0x888})
		})
		l.logf("ablation: training NetShare with batch-generation S=%d", s)
		if _, err := netshare.Train(m, train, netshare.TrainOpts{Probe: probe, ProbeEvery: 2}); err != nil {
			return nil, err
		}
		gen, err := m.Generate(netshare.GenOpts{NumStreams: l.sz.evalUEs, Device: events.Phone, Seed: l.Seed ^ 0x889})
		if err != nil {
			return nil, err
		}
		f := metrics.Evaluate(real, gen)
		agg := metrics.Replay(gen)
		t.AddRow(fmt.Sprintf("%d", s),
			pct3(agg.EventViolationRate()), pct(agg.StreamViolationRate()),
			pct(f.FlowLenMaxY), pct(f.AvgAbsBreakdownDiff))
	}
	return &Report{
		ID:      "ablation-batchgen",
		Caption: "Extension: batch-generation size trades intra-batch dependency for fewer LSTM passes (L4)",
		Tables:  []*Table{t},
	}, nil
}
