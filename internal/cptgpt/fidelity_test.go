package cptgpt

import (
	"sync"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/metrics"
	"cptgpt/internal/statemachine"
	"cptgpt/internal/stats"
	"cptgpt/internal/synthetic"
	"cptgpt/internal/tensor"
)

// trainedTestModel returns one small model trained on the synthetic ground
// truth (fixed data, config and seed, so the weights are the same in every
// run), shared by the tests that need learned rather than random weights.
var trainedTestModel = sync.OnceValues(func() (*Model, error) {
	cfg := synthetic.DefaultConfig()
	cfg.UEs = map[events.DeviceType]int{events.Phone: 150}
	cfg.Hours = 1
	d, err := synthetic.Generate(cfg)
	if err != nil {
		return nil, err
	}
	m, err := NewModel(smallConfig(), FitTokenizer(d))
	if err != nil {
		return nil, err
	}
	_, err = Train(m, d, TrainOpts{})
	return m, err
})

// TestDecodeFidelityGate is the fidelity gate on decode arithmetic: on one
// trained model and seed, every decode path — plain under each GEMM kernel,
// speculative — must generate a population whose state-machine violation
// rate and whose sojourn-time and interarrival CDFs stay within checked-in
// tolerances of the float64 reference population (referenceGenerate, the
// serial reference decoder). Kernel work may reorder float32 reductions; it
// may not move the statistics the paper evaluates (Tables 5–6, Figure 7).
//
// Tolerances: plain decoding shares the reference's per-stream RNG draws, so
// only streams where rounding flips a near-tie diverge and the populations
// nearly coincide. Speculative decoding consumes draws differently, so its
// population is an independent sample of the same distribution: the bound
// is two-sample noise at this population size (KS 95 % point ≈ 0.05 for the
// per-UE sojourn means), not arithmetic drift.
func TestDecodeFidelityGate(t *testing.T) {
	m, err := trainedTestModel()
	if err != nil {
		t.Fatal(err)
	}
	defer tensor.SetGemmF32Asm(tensor.GemmF32Asm())
	base := GenOpts{NumStreams: 1500, Device: events.Phone, Seed: 61}
	ref := referenceGenerate(t, m, base)
	refAgg := metrics.Replay(ref)
	_, refIA, _ := specMarginals(ref)
	refConn := refAgg.MeanSojourns(statemachine.TopConnected)
	if len(refConn) < 500 || len(refIA) < 5000 {
		t.Fatalf("reference population too thin to gate on: %d sojourn samples, %d interarrivals",
			len(refConn), len(refIA))
	}
	t.Logf("float64 reference: violation %.4f over %d streams", refAgg.EventViolationRate(), len(ref.Streams))

	type variant struct {
		name        string
		asm, spec   bool
		violTol     float64 // allowed rise of the event violation rate over the reference's
		sojournTol  float64 // max-y of the CONNECTED / IDLE per-UE mean sojourn CDFs
		interarrTol float64 // max-y of the pooled interarrival CDF
	}
	var variants []variant
	for _, asm := range gemmKernels() {
		name := "plain portable"
		if asm {
			name = "plain avx2"
		}
		variants = append(variants, variant{name, asm, false, 0.002, 0.02, 0.01})
	}
	variants = append(variants, variant{"speculative", tensor.GemmF32Asm(), true, 0.005, 0.07, 0.03})

	for _, v := range variants {
		tensor.SetGemmF32Asm(v.asm)
		opts := base
		if v.spec {
			opts.Speculative, opts.DraftTokens = true, 4
		}
		gen, err := m.Generate(opts)
		if err != nil {
			t.Fatal(err)
		}
		agg := metrics.Replay(gen)
		f := metrics.EvaluateWithReplay(ref, gen, refAgg, agg)
		_, genIA, _ := specMarginals(gen)
		ia := stats.MaxYDistance(refIA, genIA)
		t.Logf("%s: violation %.4f, sojourn max-y conn %.4f idle %.4f, interarrival max-y %.4f",
			v.name, f.EventViolation, f.SojournConnMaxY, f.SojournIdleMaxY, ia)
		if rise := f.EventViolation - refAgg.EventViolationRate(); rise > v.violTol {
			t.Errorf("%s: event violation rate %.4f is %.4f above the reference's (tolerance %.4f)", v.name, f.EventViolation, rise, v.violTol)
		}
		if f.SojournConnMaxY > v.sojournTol || f.SojournIdleMaxY > v.sojournTol {
			t.Errorf("%s: sojourn CDF max-y conn %.4f idle %.4f exceed %.4f", v.name, f.SojournConnMaxY, f.SojournIdleMaxY, v.sojournTol)
		}
		if ia > v.interarrTol {
			t.Errorf("%s: interarrival CDF max-y %.4f exceeds %.4f", v.name, ia, v.interarrTol)
		}
	}
}
