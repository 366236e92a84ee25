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
// 9 and 10: per-framework wall-clock time to a converged model with and
// without transfer learning, plus the resulting hour models for fidelity
// evaluation.
type timingResults struct {
	hours int

	nsScratchAll  time.Duration // one model over all hours, from scratch
	nsFirstHour   time.Duration
	nsFinetuneAvg time.Duration
	nsTotal       time.Duration

	cgScratchAll  time.Duration
	cgFirstHour   time.Duration
	cgFinetuneAvg time.Duration
	cgTotal       time.Duration

	// Models for the Table 10 fidelity comparison at the probe hour.
	probeHour    int
	nsScratchMod *netshare.Model
	nsXferMod    *netshare.Model
	cgScratchMod *cptgpt.Model
	cgXferMod    *cptgpt.Model
}

// timeToBest converts a training run's duration and best-checkpoint epoch
// into "time to converged model": the wall-clock share spent up to the best
// checkpoint (epoch cost is uniform). With no probe information it falls
// back to the full duration.
func timeToBest(dur time.Duration, bestEpoch, epochs int) time.Duration {
	if bestEpoch <= 0 || epochs <= 0 {
		return dur
	}
	return time.Duration(float64(dur) * float64(bestEpoch) / float64(epochs))
}

// driftTiming runs (once) the full drift-adaptation measurement of §5.5:
// train each framework on the multi-hour trace from scratch, then build an
// hourly ensemble by training hour 0 from scratch and fine-tuning
// recursively through the remaining hours, timing everything with the
// checkpoint-ranking convergence criterion.
func (l *Lab) driftTiming() (*timingResults, error) {
	l.mu.Lock()
	if l.timing != nil {
		defer l.mu.Unlock()
		return l.timing, nil
	}
	l.mu.Unlock()

	hourlyTrain, hourlyTest, err := l.Hourly()
	if err != nil {
		return nil, err
	}
	hours := len(hourlyTrain)
	tr := &timingResults{hours: hours, probeHour: min(3, hours-1)}

	// Concatenated multi-hour dataset (hour slices already rename UEs).
	all := &trace.Dataset{Generation: events.Gen4G}
	for _, h := range hourlyTrain {
		all.Streams = append(all.Streams, h.Streams...)
	}

	// ---------------- CPT-GPT ----------------
	cptCfg := l.cptConfig()
	cptCfg.Epochs = l.sz.hourEpochs
	mkProbe := func(val *trace.Dataset, gen func() (*trace.Dataset, error)) func() float64 {
		return l.probeFor(val.Sample(150), gen)
	}

	l.logf("drift timing: CPT-GPT scratch model over %d hours (%d streams)", hours, all.NumStreams())
	tok := cptgpt.FitTokenizer(all)
	cgAll, err := cptgpt.NewModel(cptCfg, tok)
	if err != nil {
		return nil, err
	}
	probe := mkProbe(all, func() (*trace.Dataset, error) {
		return cgAll.Generate(cptgpt.GenOpts{NumStreams: 100, Device: events.Phone, Seed: l.Seed ^ 0xF00})
	})
	res, err := cptgpt.Train(cgAll, all, cptgpt.TrainOpts{Probe: probe, ProbeEvery: 2})
	if err != nil {
		return nil, err
	}
	tr.cgScratchAll = timeToBest(res.Duration, res.BestEpoch, res.Epochs)
	tr.cgScratchMod = cgAll

	l.logf("drift timing: CPT-GPT hourly ensemble via transfer learning")
	cgHour, err := cptgpt.NewModel(cptCfg, cptgpt.FitTokenizer(hourlyTrain[0]))
	if err != nil {
		return nil, err
	}
	probe = mkProbe(hourlyTrain[0], func() (*trace.Dataset, error) {
		return cgHour.Generate(cptgpt.GenOpts{NumStreams: 100, Device: events.Phone, Seed: l.Seed ^ 0xF01})
	})
	res, err = cptgpt.Train(cgHour, hourlyTrain[0], cptgpt.TrainOpts{Probe: probe, ProbeEvery: 2})
	if err != nil {
		return nil, err
	}
	tr.cgFirstHour = timeToBest(res.Duration, res.BestEpoch, res.Epochs)

	var cgFT time.Duration
	cur := cgHour
	for h := 1; h < hours; h++ {
		next, err := cur.Clone()
		if err != nil {
			return nil, err
		}
		probe = mkProbe(hourlyTrain[h], func() (*trace.Dataset, error) {
			return next.Generate(cptgpt.GenOpts{NumStreams: 100, Device: events.Phone, Seed: l.Seed ^ uint64(h)})
		})
		res, err = cptgpt.FineTune(next, hourlyTrain[h], cptgpt.TrainOpts{
			Epochs: max(2, l.sz.hourEpochs/3), Probe: probe, ProbeEvery: 1,
		})
		if err != nil {
			return nil, err
		}
		cgFT += timeToBest(res.Duration, res.BestEpoch, res.Epochs)
		cur = next
		if h == tr.probeHour {
			tr.cgXferMod = cur
		}
	}
	if tr.cgXferMod == nil {
		tr.cgXferMod = cur
	}
	tr.cgFinetuneAvg = cgFT / time.Duration(max(1, hours-1))
	tr.cgTotal = tr.cgFirstHour + cgFT

	// ---------------- NetShare ----------------
	nsCfg := l.nsConfig()
	nsCfg.Epochs = l.sz.nsEpochs

	l.logf("drift timing: NetShare scratch model over %d hours", hours)
	nsAll, err := netshare.New(nsCfg)
	if err != nil {
		return nil, err
	}
	probe = mkProbe(all, func() (*trace.Dataset, error) {
		return nsAll.Generate(netshare.GenOpts{NumStreams: 100, Device: events.Phone, Seed: l.Seed ^ 0xF02})
	})
	nres, err := netshare.Train(nsAll, all, netshare.TrainOpts{Probe: probe, ProbeEvery: 2})
	if err != nil {
		return nil, err
	}
	tr.nsScratchAll = timeToBest(nres.Duration, nres.BestEpoch, nres.Epochs)
	tr.nsScratchMod = nsAll

	l.logf("drift timing: NetShare hourly ensemble via transfer learning")
	nsHour, err := netshare.New(nsCfg)
	if err != nil {
		return nil, err
	}
	probe = mkProbe(hourlyTrain[0], func() (*trace.Dataset, error) {
		return nsHour.Generate(netshare.GenOpts{NumStreams: 100, Device: events.Phone, Seed: l.Seed ^ 0xF03})
	})
	nres, err = netshare.Train(nsHour, hourlyTrain[0], netshare.TrainOpts{Probe: probe, ProbeEvery: 2})
	if err != nil {
		return nil, err
	}
	tr.nsFirstHour = timeToBest(nres.Duration, nres.BestEpoch, nres.Epochs)

	var nsFT time.Duration
	nsCur := nsHour
	for h := 1; h < hours; h++ {
		next, err := nsCur.Clone()
		if err != nil {
			return nil, err
		}
		probe = mkProbe(hourlyTrain[h], func() (*trace.Dataset, error) {
			return next.Generate(netshare.GenOpts{NumStreams: 100, Device: events.Phone, Seed: l.Seed ^ 0xF04 ^ uint64(h)})
		})
		// GAN fine-tuning gets the same epoch budget as scratch: unlike
		// the supervised transformer, adversarial training does not
		// reliably converge faster from a warm start (the paper's L3).
		nres, err = netshare.Train(next, hourlyTrain[h], netshare.TrainOpts{
			Epochs: l.sz.nsFTEps, Probe: probe, ProbeEvery: 2,
		})
		if err != nil {
			return nil, err
		}
		nsFT += timeToBest(nres.Duration, nres.BestEpoch, nres.Epochs)
		nsCur = next
		if h == tr.probeHour {
			tr.nsXferMod = nsCur
		}
	}
	if tr.nsXferMod == nil {
		tr.nsXferMod = nsCur
	}
	tr.nsFinetuneAvg = nsFT / time.Duration(max(1, hours-1))
	tr.nsTotal = tr.nsFirstHour + nsFT

	_ = hourlyTest
	l.mu.Lock()
	l.timing = tr
	l.mu.Unlock()
	return tr, nil
}

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
	t.AddRow(fmt.Sprintf("%d-hour model from scratch", tr.hours), tr.nsScratchAll.Round(time.Millisecond).String())
	t.AddRow("1-hour model from scratch", tr.nsFirstHour.Round(time.Millisecond).String())
	t.AddRow("1-hour model from finetuning from another hour", tr.nsFinetuneAvg.Round(time.Millisecond).String())
	t.AddRow(fmt.Sprintf("%d 1-hour models total from transfer learning", tr.hours), tr.nsTotal.Round(time.Millisecond).String())
	return &Report{
		ID:      "table4",
		Caption: "Time to train NetShare from scratch vs transfer learning",
		Tables:  []*Table{t},
		Notes: []string{
			"paper (A100, 6 hours): scratch 108.36 min; hourly ensemble via transfer 195.12 min — transfer is ~1.8× slower",
			fmt.Sprintf("measured ratio ensemble/scratch: %.2f×", ratio(tr.nsTotal, tr.nsScratchAll)),
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
	t.AddRow("No transfer learning (one multi-hour model)",
		tr.nsScratchAll.Round(time.Millisecond).String(), tr.cgScratchAll.Round(time.Millisecond).String())
	t.AddRow("First hour from scratch",
		tr.nsFirstHour.Round(time.Millisecond).String(), tr.cgFirstHour.Round(time.Millisecond).String())
	t.AddRow("Finetune to each subsequent hour (avg)",
		tr.nsFinetuneAvg.Round(time.Millisecond).String(), tr.cgFinetuneAvg.Round(time.Millisecond).String())
	t.AddRow("Total (hourly ensemble)",
		tr.nsTotal.Round(time.Millisecond).String(), tr.cgTotal.Round(time.Millisecond).String())
	return &Report{
		ID:      "table9",
		Caption: "Drift adaptation cost: scratch vs transfer learning",
		Tables:  []*Table{t},
		Notes: []string{
			"paper: NetShare 108.36 → 195.12 min (transfer hurts); CPT-GPT 104.40 → 67.12 min (transfer helps, 3.36× cheaper hourly models)",
			fmt.Sprintf("measured: NetShare ensemble/scratch %.2f×; CPT-GPT ensemble/scratch %.2f×; CPT-GPT finetune is %.2f× faster than its scratch hour",
				ratio(tr.nsTotal, tr.nsScratchAll), ratio(tr.cgTotal, tr.cgScratchAll), ratio(tr.cgFirstHour, tr.cgFinetuneAvg)),
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
	n := l.sz.evalUEs

	eval := func(gen *trace.Dataset) metrics.Fidelity { return metrics.Evaluate(real, gen) }
	nsScr, err := tr.nsScratchMod.Generate(netshare.GenOpts{NumStreams: n, Device: events.Phone, Seed: l.Seed ^ 0xA1})
	if err != nil {
		return nil, err
	}
	nsXfer, err := tr.nsXferMod.Generate(netshare.GenOpts{NumStreams: n, Device: events.Phone, Seed: l.Seed ^ 0xA2})
	if err != nil {
		return nil, err
	}
	cgScr, err := tr.cgScratchMod.Generate(cptgpt.GenOpts{NumStreams: n, Device: events.Phone, Seed: l.Seed ^ 0xA3})
	if err != nil {
		return nil, err
	}
	cgXfer, err := tr.cgXferMod.Generate(cptgpt.GenOpts{NumStreams: n, Device: events.Phone, Seed: l.Seed ^ 0xA4})
	if err != nil {
		return nil, err
	}
	fNsScr, fNsX, fCgScr, fCgX := eval(nsScr), eval(nsXfer), eval(cgScr), eval(cgXfer)

	t := &Table{
		Title:  fmt.Sprintf("Fidelity at hour %d with and without transfer learning", tr.probeHour+1),
		Header: []string{"metric", "NetShare w/o xfer", "CPT-GPT w/o xfer", "NetShare w/ xfer", "CPT-GPT w/ xfer"},
	}
	t.AddRow("Event violations", pct3(fNsScr.EventViolation), pct3(fCgScr.EventViolation), pct3(fNsX.EventViolation), pct3(fCgX.EventViolation))
	t.AddRow("Stream violations", pct(fNsScr.StreamViolation), pct(fCgScr.StreamViolation), pct(fNsX.StreamViolation), pct(fCgX.StreamViolation))
	t.AddRow("Sojourn CONNECTED max-y", pct(fNsScr.SojournConnMaxY), pct(fCgScr.SojournConnMaxY), pct(fNsX.SojournConnMaxY), pct(fCgX.SojournConnMaxY))
	t.AddRow("Sojourn IDLE max-y", pct(fNsScr.SojournIdleMaxY), pct(fCgScr.SojournIdleMaxY), pct(fNsX.SojournIdleMaxY), pct(fCgX.SojournIdleMaxY))
	t.AddRow("Flow length max-y", pct(fNsScr.FlowLenMaxY), pct(fCgScr.FlowLenMaxY), pct(fNsX.FlowLenMaxY), pct(fCgX.FlowLenMaxY))
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
