package cptgpt

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/stats"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
)

func TestParsePrecision(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Precision
		ok   bool
	}{
		{"", F64, true}, {"f64", F64, true}, {"float64", F64, true},
		{"f32", F32, true}, {"F32", F32, true}, {"float32", F32, true},
		{"f16", F64, false}, {"fast", F64, false},
	} {
		got, err := ParsePrecision(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Fatalf("ParsePrecision(%q) = (%v, %v), want (%v, ok=%v)", c.in, got, err, c.want, c.ok)
		}
	}
	if F64.String() != "f64" || F32.String() != "f32" {
		t.Fatalf("Precision.String: %q %q", F64.String(), F32.String())
	}
}

// TestInferSnapshotInvalidation pins the freeze/invalidate lifecycle: Infer
// caches one snapshot, InvalidateInfer drops it, and the snapshot holds
// value copies (mutating the live weights does not change it).
func TestInferSnapshotInvalidation(t *testing.T) {
	d := testTrainingData(t, 40)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	a := m.Infer()
	if m.Infer() != a {
		t.Fatal("Infer must cache the snapshot")
	}
	w0 := a.inProj.W[0]
	m.InProj.W.Data[0] += 100
	if a.inProj.W[0] != w0 {
		t.Fatal("snapshot aliases live weights")
	}
	m.InvalidateInfer()
	b := m.Infer()
	if b == a {
		t.Fatal("InvalidateInfer must drop the cached snapshot")
	}
	if float64(b.inProj.W[0]) == float64(w0) {
		t.Fatal("re-frozen snapshot must see the updated weight")
	}
}

// TestF32LogitTolerance steps the same token sequences through the serial
// float64 decoder and the float32 BatchDecoder, requiring every head output
// to stay within a small absolute tolerance of the reference at every
// position — the per-token fidelity gate of the fast path. Two shapes: the
// test model (d_model 24, 4 heads of 6: every kernel's masked tail) and the
// paper's (d_model 128, 4 heads of 32, MLP 1024: the shape cptbench decodes),
// both untrained; under whichever kernels the machine dispatches.
func TestF32LogitTolerance(t *testing.T) {
	d := testTrainingData(t, 40)
	tk := FitTokenizer(d)
	paper := smallConfig()
	paper.DModel, paper.MLPHidden, paper.HeadHidden = 128, 1024, 64
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"test shape", smallConfig()}, {"paper shape", paper}} {
		m, err := NewModel(c.cfg, tk)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: max |f32 - f64| head output difference: %.3e", c.name, f32LogitDiff(t, m, d))
	}
}

// f32LogitDiff is TestF32LogitTolerance on one model.
func f32LogitDiff(t *testing.T, m *Model, d *trace.Dataset) float64 {
	tk := m.Tok
	dim := tk.Dim()
	var encs []*tensor.Tensor
	for i := range d.Streams {
		if len(d.Streams[i].Events) >= 4 && len(d.Streams[i].Events) <= m.Cfg.MaxLen {
			enc, _, err := tk.EncodeStream(&d.Streams[i])
			if err != nil {
				t.Fatal(err)
			}
			encs = append(encs, enc)
			if len(encs) == 3 {
				break
			}
		}
	}
	if len(encs) < 2 {
		t.Skip("not enough suitable streams in tiny dataset")
	}

	const tol = 5e-3
	bd := m.NewBatchDecoder(len(encs), F32)
	serial := make([]*decoder, len(encs))
	for i := range serial {
		serial[i] = newDecoder(m)
	}
	var maxDiff float64
	toks := make([]float64, len(encs)*dim)
	for step := 0; ; step++ {
		var slots []int
		for i, enc := range encs {
			if step < enc.Rows {
				slots = append(slots, i)
				copy(toks[i*dim:(i+1)*dim], enc.Data[step*dim:(step+1)*dim])
			}
		}
		if len(slots) == 0 {
			break
		}
		outs := bd.Step(slots, toks)
		for j, slot := range slots {
			want := serial[slot].step(encs[slot].Data[step*dim : (step+1)*dim])
			got := outs[j]
			check := func(name string, g, w float64) {
				diff := math.Abs(g - w)
				if diff > maxDiff {
					maxDiff = diff
				}
				if diff > tol || math.IsNaN(g) != math.IsNaN(w) {
					t.Fatalf("d_model %d slot %d step %d %s: f32 %v vs f64 %v (|Δ| %.2e > %g)", m.Cfg.DModel, slot, step, name, g, w, diff, tol)
				}
			}
			for k := range want.EventLogits {
				check(fmt.Sprintf("event logit %d", k), got.EventLogits[k], want.EventLogits[k])
			}
			check("IAMean", got.IAMean, want.IAMean)
			if !math.IsNaN(want.IALogStd) {
				check("IALogStd", got.IALogStd, want.IALogStd)
			}
			check("stop0", got.StopLogits[0], want.StopLogits[0])
			check("stop1", got.StopLogits[1], want.StopLogits[1])
		}
	}
	return maxDiff
}

// TestF32GenerateDeterministic pins the F32 determinism contract: for a
// fixed seed the float32 path emits identical output at every Parallelism ×
// BatchSize combination, and repeated runs are bit-identical.
func TestF32GenerateDeterministic(t *testing.T) {
	d := testTrainingData(t, 60)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	base := GenOpts{NumStreams: 23, Device: events.Phone, Seed: 99, StartWindow: 30, Precision: F32}
	want, err := m.Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ par, batch int }{
		{1, 1}, {1, 23}, {8, 4}, {3, 7},
	} {
		opts := base
		opts.Parallelism = c.par
		opts.BatchSize = c.batch
		got, err := m.Generate(opts)
		if err != nil {
			t.Fatal(err)
		}
		sameStreams(t, fmt.Sprintf("f32 parallelism=%d batch=%d", c.par, c.batch), want.Streams, got.Streams)
	}

	// GenerateRange must reproduce the same population chunk-wise.
	var chunked []trace.Stream
	for lo := 0; lo < base.NumStreams; lo += 7 {
		hi := min(lo+7, base.NumStreams)
		part, err := m.GenerateRange(lo, hi, base)
		if err != nil {
			t.Fatal(err)
		}
		chunked = append(chunked, part...)
	}
	sameStreams(t, "f32 chunked range", want.Streams, chunked)
}

// TestF32FidelityMarginals is the distribution-level gate on the fast path:
// over a population generated from the same seed, the F32 event-type
// marginal must stay within a small total-variation distance of F64's, and
// the interarrival and stream-length marginals within a small KS distance.
// Individual streams may diverge (a near-tie flipped by a 1e-7 logit
// perturbation resteers that stream's RNG), but the workload statistics the
// paper evaluates must not move.
func TestF32FidelityMarginals(t *testing.T) {
	d := testTrainingData(t, 60)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	opts := GenOpts{NumStreams: 500, Device: events.Phone, Seed: 17}
	f64d, err := m.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Precision = F32
	f32d, err := m.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}

	marginals := func(ds *trace.Dataset) (types map[events.Type]float64, ias, lens []float64) {
		types = make(map[events.Type]float64)
		var total float64
		for i := range ds.Streams {
			s := &ds.Streams[i]
			lens = append(lens, float64(len(s.Events)))
			for _, e := range s.Events {
				types[e.Type]++
				total++
			}
			ia := s.Interarrivals()
			ias = append(ias, ia[min(len(ia), 1):]...)
		}
		for k := range types {
			types[k] /= total
		}
		return types, ias, lens
	}
	t64, ia64, len64 := marginals(f64d)
	t32, ia32, len32 := marginals(f32d)

	var tv float64
	for _, typ := range tk.Vocab() {
		tv += math.Abs(t64[typ] - t32[typ])
	}
	tv /= 2
	if tv > 0.02 {
		t.Fatalf("event-type marginal TV distance %v > 0.02 (f64 %v vs f32 %v)", tv, t64, t32)
	}
	if ks := stats.MaxYDistance(ia64, ia32); ks > 0.02 {
		t.Fatalf("interarrival KS distance %v > 0.02", ks)
	}
	if ks := stats.MaxYDistance(len64, len32); ks > 0.02 {
		t.Fatalf("stream-length KS distance %v > 0.02", ks)
	}
}

// TestConcurrentGenerateSharedModel decodes from one Model in four
// goroutines at once — two per precision, the F32 pair racing to build the
// shared Infer snapshot — and requires every run to equal its single-
// threaded reference. Run under -race (CI does), this pins the contract
// that trained weights and the frozen snapshot are data-race-free shared
// state across any number of concurrent decoders.
func TestConcurrentGenerateSharedModel(t *testing.T) {
	d := testTrainingData(t, 40)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	optsFor := func(prec Precision, seed uint64) GenOpts {
		return GenOpts{NumStreams: 12, Device: events.Phone, Seed: seed, Precision: prec, Parallelism: 2, BatchSize: 4}
	}
	want := map[string]*trace.Dataset{}
	for _, prec := range []Precision{F64, F32} {
		for _, seed := range []uint64{5, 6} {
			ds, err := m.Generate(optsFor(prec, seed))
			if err != nil {
				t.Fatal(err)
			}
			want[fmt.Sprintf("%s-%d", prec, seed)] = ds
		}
	}
	m.InvalidateInfer() // force the concurrent runs to rebuild the snapshot

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for _, prec := range []Precision{F64, F32} {
		for _, seed := range []uint64{5, 6} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := m.Generate(optsFor(prec, seed))
				if err != nil {
					errs <- err
					return
				}
				key := fmt.Sprintf("%s-%d", prec, seed)
				w := want[key]
				if len(got.Streams) != len(w.Streams) {
					errs <- fmt.Errorf("%s: %d streams, want %d", key, len(got.Streams), len(w.Streams))
					return
				}
				for i := range w.Streams {
					if len(got.Streams[i].Events) != len(w.Streams[i].Events) {
						errs <- fmt.Errorf("%s stream %d: %d events, want %d", key, i, len(got.Streams[i].Events), len(w.Streams[i].Events))
						return
					}
					for j := range w.Streams[i].Events {
						if got.Streams[i].Events[j] != w.Streams[i].Events[j] {
							errs <- fmt.Errorf("%s stream %d event %d differs", key, i, j)
							return
						}
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
