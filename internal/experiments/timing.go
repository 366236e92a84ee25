package experiments

import (
	"fmt"
	"time"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/metrics"
	"cptgpt/internal/netshare"
	"cptgpt/internal/trace"
)

// timingResults caches the drift-adaptation measurement shared by Tables 4,
// 9 and 10, one frameworkTiming per framework.
type timingResults struct {
	hours     int
	probeHour int // the hour of the Table 10 fidelity comparison
	ns        frameworkTiming[*netshare.Model]
	cg        frameworkTiming[*cptgpt.Model]
}

// frameworkTiming is one framework's wall-clock time to a converged model
// with and without transfer learning, plus the scratch model over all hours
// and the transfer-learned model of the probe hour.
type frameworkTiming[M any] struct {
	scratchAll  time.Duration // one model over all hours, from scratch
	firstHour   time.Duration
	finetuneAvg time.Duration
	total       time.Duration

	scratchMod, xferMod M
	generate            func(m M, n int, seed uint64) (*trace.Dataset, error)
}

// trained is a training run's result (both embed nn.LoopResult).
type trained interface{ TimeToBest() time.Duration }

// framework is what the drift measurement needs of one generator.
type framework[M interface{ Clone() (M, error) }] struct {
	name string
	// new builds an untrained model for the dataset it will train on.
	new      func(d *trace.Dataset) (M, error)
	generate func(m M, n int, seed uint64) (*trace.Dataset, error)
	// train fits m to d from scratch, or adapts the previous hour's model
	// to the next hour (fineTune), under the checkpoint-ranking probe.
	train func(m M, d *trace.Dataset, fineTune bool, probe func() float64) (trained, error)
	// seeds xor the lab seed for the probes of the scratch model over all
	// hours, of the first hour, and (xor the hour) of each fine-tuned hour.
	seeds [3]uint64
}

// driftTiming runs (once) the full drift-adaptation measurement of §5.5 for
// CPT-GPT, then NetShare.
func (l *Lab) driftTiming() (*timingResults, error) {
	l.mu.Lock()
	if l.timing != nil {
		defer l.mu.Unlock()
		return l.timing, nil
	}
	l.mu.Unlock()

	hourly, _, err := l.Hourly()
	if err != nil {
		return nil, err
	}
	tr := &timingResults{hours: len(hourly), probeHour: min(3, len(hourly)-1)}

	cptCfg := l.cptConfig()
	cptCfg.Epochs = l.sz.hourEpochs
	if tr.cg, err = measure(l, hourly, tr.probeHour, framework[*cptgpt.Model]{
		name: "CPT-GPT",
		new: func(d *trace.Dataset) (*cptgpt.Model, error) {
			return cptgpt.NewModel(cptCfg, cptgpt.FitTokenizer(d))
		},
		generate: func(m *cptgpt.Model, n int, seed uint64) (*trace.Dataset, error) {
			return m.Generate(cptgpt.GenOpts{NumStreams: n, Device: events.Phone, Seed: seed})
		},
		train: func(m *cptgpt.Model, d *trace.Dataset, fineTune bool, probe func() float64) (trained, error) {
			if fineTune {
				return cptgpt.FineTune(m, d, cptgpt.TrainOpts{Epochs: max(2, l.sz.hourEpochs/3), Probe: probe, ProbeEvery: 1})
			}
			return cptgpt.Train(m, d, cptgpt.TrainOpts{Probe: probe, ProbeEvery: 2})
		},
		seeds: [3]uint64{0xF00, 0xF01, 0},
	}); err != nil {
		return nil, err
	}

	nsCfg := l.nsConfig()
	nsCfg.Epochs = l.sz.nsEpochs
	if tr.ns, err = measure(l, hourly, tr.probeHour, framework[*netshare.Model]{
		name: "NetShare",
		new:  func(*trace.Dataset) (*netshare.Model, error) { return netshare.New(nsCfg) },
		generate: func(m *netshare.Model, n int, seed uint64) (*trace.Dataset, error) {
			return m.Generate(netshare.GenOpts{NumStreams: n, Device: events.Phone, Seed: seed})
		},
		train: func(m *netshare.Model, d *trace.Dataset, fineTune bool, probe func() float64) (trained, error) {
			opts := netshare.TrainOpts{Probe: probe, ProbeEvery: 2}
			if fineTune {
				// GAN fine-tuning gets the same epoch budget as scratch:
				// unlike the supervised transformer, adversarial training
				// does not reliably converge faster from a warm start (the
				// paper's L3).
				opts.Epochs = l.sz.nsFTEps
			}
			return netshare.Train(m, d, opts)
		},
		seeds: [3]uint64{0xF02, 0xF03, 0xF04},
	}); err != nil {
		return nil, err
	}

	l.mu.Lock()
	l.timing = tr
	l.mu.Unlock()
	return tr, nil
}

// measure trains one framework on the multi-hour trace from scratch, then
// builds an hourly ensemble by training hour 0 from scratch and fine-tuning
// recursively through the remaining hours, timing everything with the
// checkpoint-ranking convergence criterion.
func measure[M interface{ Clone() (M, error) }](l *Lab, hourly []*trace.Dataset, probeHour int, fw framework[M]) (frameworkTiming[M], error) {
	ft := frameworkTiming[M]{generate: fw.generate}
	// run trains m on d under a probe of the model's own sample against d.
	run := func(m M, d *trace.Dataset, fineTune bool, seed uint64) (time.Duration, error) {
		probe := l.probeFor(d.Sample(150), func() (*trace.Dataset, error) { return fw.generate(m, 100, l.Seed^seed) })
		res, err := fw.train(m, d, fineTune, probe)
		if err != nil {
			return 0, err
		}
		return res.TimeToBest(), nil
	}

	// Concatenated multi-hour dataset (hour slices already rename UEs).
	all := &trace.Dataset{Generation: events.Gen4G}
	for _, h := range hourly {
		all.Streams = append(all.Streams, h.Streams...)
	}
	l.logf("drift timing: %s scratch model over %d hours (%d streams)", fw.name, len(hourly), all.NumStreams())
	m, err := fw.new(all)
	if err != nil {
		return ft, err
	}
	if ft.scratchAll, err = run(m, all, false, fw.seeds[0]); err != nil {
		return ft, err
	}
	ft.scratchMod = m

	l.logf("drift timing: %s hourly ensemble via transfer learning", fw.name)
	if m, err = fw.new(hourly[0]); err != nil {
		return ft, err
	}
	if ft.firstHour, err = run(m, hourly[0], false, fw.seeds[1]); err != nil {
		return ft, err
	}
	ft.xferMod = m
	var fineTuned time.Duration
	for h := 1; h < len(hourly); h++ {
		if m, err = m.Clone(); err != nil {
			return ft, err
		}
		d, err := run(m, hourly[h], true, fw.seeds[2]^uint64(h))
		if err != nil {
			return ft, err
		}
		fineTuned += d
		if h <= probeHour {
			ft.xferMod = m
		}
	}
	ft.finetuneAvg = fineTuned / time.Duration(max(1, len(hourly)-1))
	ft.total = ft.firstHour + fineTuned
	return ft, nil
}

// fidelity scores n streams of the scratch model and of the
// transfer-learned model against real, generated at the two seeds.
func (ft *frameworkTiming[M]) fidelity(real *trace.Dataset, n int, seeds [2]uint64) ([2]metrics.Fidelity, error) {
	var f [2]metrics.Fidelity
	for i, m := range []M{ft.scratchMod, ft.xferMod} {
		g, err := ft.generate(m, n, seeds[i])
		if err != nil {
			return f, err
		}
		f[i] = metrics.Evaluate(real, g)
	}
	return f, nil
}

// ms renders a duration to the millisecond.
func ms(d time.Duration) string { return d.Round(time.Millisecond).String() }

// Table4 reproduces the NetShare-only training-time comparison that
// motivates L3 (a subset of Table 9's measurement).
func Table4(l *Lab) (*Report, error) {
	tr, err := l.driftTiming()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("NetShare training time (%d-hour workload)", tr.hours),
		Header: []string{"setup", "time"},
	}
	t.AddRow(fmt.Sprintf("%d-hour model from scratch", tr.hours), ms(tr.ns.scratchAll))
	t.AddRow("1-hour model from scratch", ms(tr.ns.firstHour))
	t.AddRow("1-hour model from finetuning from another hour", ms(tr.ns.finetuneAvg))
	t.AddRow(fmt.Sprintf("%d 1-hour models total from transfer learning", tr.hours), ms(tr.ns.total))
	return &Report{
		ID:      "table4",
		Caption: "Time to train NetShare from scratch vs transfer learning",
		Tables:  []*Table{t},
		Notes: []string{
			"paper (A100, 6 hours): scratch 108.36 min; hourly ensemble via transfer 195.12 min — transfer is ~1.8× slower",
			fmt.Sprintf("measured ratio ensemble/scratch: %.2f×", ratio(tr.ns.total, tr.ns.scratchAll)),
		},
	}, nil
}

// Table9 reproduces the training-time comparison of both frameworks with
// and without transfer learning.
func Table9(l *Lab) (*Report, error) {
	tr, err := l.driftTiming()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Training time with and without transfer learning (%d hourly models)", tr.hours),
		Header: []string{"setup", "NetShare", "CPT-GPT"},
	}
	t.AddRow("No transfer learning (one multi-hour model)", ms(tr.ns.scratchAll), ms(tr.cg.scratchAll))
	t.AddRow("First hour from scratch", ms(tr.ns.firstHour), ms(tr.cg.firstHour))
	t.AddRow("Finetune to each subsequent hour (avg)", ms(tr.ns.finetuneAvg), ms(tr.cg.finetuneAvg))
	t.AddRow("Total (hourly ensemble)", ms(tr.ns.total), ms(tr.cg.total))
	return &Report{
		ID:      "table9",
		Caption: "Drift adaptation cost: scratch vs transfer learning",
		Tables:  []*Table{t},
		Notes: []string{
			"paper: NetShare 108.36 → 195.12 min (transfer hurts); CPT-GPT 104.40 → 67.12 min (transfer helps, 3.36× cheaper hourly models)",
			fmt.Sprintf("measured: NetShare ensemble/scratch %.2f×; CPT-GPT ensemble/scratch %.2f×; CPT-GPT finetune is %.2f× faster than its scratch hour",
				ratio(tr.ns.total, tr.ns.scratchAll), ratio(tr.cg.total, tr.cg.scratchAll), ratio(tr.cg.firstHour, tr.cg.finetuneAvg)),
		},
	}, nil
}

// Table10 reproduces the fidelity comparison at the probe hour with and
// without transfer learning.
func Table10(l *Lab) (*Report, error) {
	tr, err := l.driftTiming()
	if err != nil {
		return nil, err
	}
	_, hourlyTest, err := l.Hourly()
	if err != nil {
		return nil, err
	}
	real := hourlyTest[tr.probeHour]
	ns, err := tr.ns.fidelity(real, l.sz.evalUEs, [2]uint64{l.Seed ^ 0xA1, l.Seed ^ 0xA2})
	if err != nil {
		return nil, err
	}
	cg, err := tr.cg.fidelity(real, l.sz.evalUEs, [2]uint64{l.Seed ^ 0xA3, l.Seed ^ 0xA4})
	if err != nil {
		return nil, err
	}

	t := &Table{
		Title:  fmt.Sprintf("Fidelity at hour %d with and without transfer learning", tr.probeHour+1),
		Header: []string{"metric", "NetShare w/o xfer", "CPT-GPT w/o xfer", "NetShare w/ xfer", "CPT-GPT w/ xfer"},
	}
	t.AddRow("Event violations", pct3(ns[0].EventViolation), pct3(cg[0].EventViolation), pct3(ns[1].EventViolation), pct3(cg[1].EventViolation))
	t.AddRow("Stream violations", pct(ns[0].StreamViolation), pct(cg[0].StreamViolation), pct(ns[1].StreamViolation), pct(cg[1].StreamViolation))
	t.AddRow("Sojourn CONNECTED max-y", pct(ns[0].SojournConnMaxY), pct(cg[0].SojournConnMaxY), pct(ns[1].SojournConnMaxY), pct(cg[1].SojournConnMaxY))
	t.AddRow("Sojourn IDLE max-y", pct(ns[0].SojournIdleMaxY), pct(cg[0].SojournIdleMaxY), pct(ns[1].SojournIdleMaxY), pct(cg[1].SojournIdleMaxY))
	t.AddRow("Flow length max-y", pct(ns[0].FlowLenMaxY), pct(cg[0].FlowLenMaxY), pct(ns[1].FlowLenMaxY), pct(cg[1].FlowLenMaxY))
	return &Report{
		ID:      "table10",
		Caption: "Transfer learning has limited impact on fidelity (both frameworks)",
		Tables:  []*Table{t},
		Notes: []string{
			"paper: transfer learning does not obviously change fidelity for either framework; some metrics improve, others degrade",
		},
	}, nil
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}
