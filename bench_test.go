// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (experiments.All is the experiment index), plus
// micro-benchmarks of the substrates (autograd matmul, transformer step,
// generators, state-machine replay).
//
// The experiment benchmarks share one Lab, so generator training happens
// once per process; subsequent iterations re-render tables from cached
// artifacts. The scale defaults to "unit" so `go test -bench=.` completes
// quickly; set CPTGPT_SCALE=short or =full (or run cmd/cptexperiments) for
// paper-shaped sizes.
package cptgen

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/experiments"
	"cptgpt/internal/mcn"
	"cptgpt/internal/metrics"
	"cptgpt/internal/replaynet"
	"cptgpt/internal/runlog"
	"cptgpt/internal/scenario"
	"cptgpt/internal/served"
	"cptgpt/internal/smm"
	"cptgpt/internal/stats"
	"cptgpt/internal/synthetic"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
	"cptgpt/internal/tracez"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
	benchLabErr  error
)

func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		scale := experiments.Unit
		if s := os.Getenv("CPTGPT_SCALE"); s != "" {
			var err error
			if scale, err = experiments.ParseScale(s); err != nil {
				benchLabErr = err
				return
			}
		}
		benchLab = experiments.NewLab(scale, 1)
	})
	if benchLabErr != nil {
		b.Fatal(benchLabErr)
	}
	return benchLab
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	l := lab(b)
	e, err := experiments.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the lab (train models, cache datasets) outside the timed loop.
	r, err := e.Run(l)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("\n%s", r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(l); err != nil {
			b.Fatal(err)
		}
	}
}

// Experiment benchmarks (paper tables and figures).

func BenchmarkTable3NetShareViolations(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkFigure2SojournCDF(b *testing.B)          { benchExperiment(b, "figure2") }
func BenchmarkTable4NetShareTransferCost(b *testing.B) { benchExperiment(b, "table4") }
func BenchmarkTable5Violations(b *testing.B)           { benchExperiment(b, "table5") }
func BenchmarkTable6MaxYDistance(b *testing.B)         { benchExperiment(b, "table6") }
func BenchmarkFigure5CDFGrid(b *testing.B)             { benchExperiment(b, "figure5") }
func BenchmarkTable7EventBreakdown(b *testing.B)       { benchExperiment(b, "table7") }
func BenchmarkTable8Ablation(b *testing.B)             { benchExperiment(b, "table8") }
func BenchmarkFigure6Scalability(b *testing.B)         { benchExperiment(b, "figure6") }
func BenchmarkTable9TransferTime(b *testing.B)         { benchExperiment(b, "table9") }
func BenchmarkTable10TransferFidelity(b *testing.B)    { benchExperiment(b, "table10") }
func BenchmarkTable11Memorization(b *testing.B)        { benchExperiment(b, "table11") }
func BenchmarkFigure7Interarrival(b *testing.B)        { benchExperiment(b, "figure7") }
func BenchmarkAblationBatchGen(b *testing.B)           { benchExperiment(b, "ablation-batchgen") }
func BenchmarkAblationLogScale(b *testing.B)           { benchExperiment(b, "ablation-logscale") }

// Substrate micro-benchmarks.

func BenchmarkTensorMatMul128(b *testing.B) {
	rng := stats.NewRand(1)
	x := tensor.Randn(128, 128, 1, rng)
	y := tensor.Randn(128, 128, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

// BenchmarkTensorMatMul128Serial pins the kernel to one worker — the
// baseline for the pool speedup (results are bit-identical either way).
func BenchmarkTensorMatMul128Serial(b *testing.B) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	rng := stats.NewRand(1)
	x := tensor.Randn(128, 128, 1, rng)
	y := tensor.Randn(128, 128, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

// BenchmarkTensorMatMulBlocked256 times the float64 MatMul at 256³, where
// the shape rule packs b into column panels first, pinned to one worker so
// the kernel effect is isolated from pool sharding. The result equals the
// plain zero-skipping triple loop bit for bit (internal/tensor
// TestMatMulBlockedMatchesNaive, FuzzMatMulF64).
func BenchmarkTensorMatMulBlocked256(b *testing.B) {
	prevP := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prevP)
	rng := stats.NewRand(1)
	x := tensor.Randn(256, 256, 1, rng)
	y := tensor.Randn(256, 256, 1, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
}

// BenchmarkCPTGPTTrainEpoch times one full CPT-GPT training epoch over a
// fixed stream population — one packed forward per optimizer step of
// AccumStreams streams, at the process-global parallelism — and reports
// amortized ns/token (the §5.5 time-to-fidelity currency: tokens processed
// per unit wall-clock).
func BenchmarkCPTGPTTrainEpoch(b *testing.B) {
	d, err := synthetic.Generate(synthetic.Config{
		Generation: events.Gen4G, Seed: 4,
		UEs: map[events.DeviceType]int{events.Phone: 80}, Hours: 1, StartHour: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultCPTGPTConfig()
	cfg.Generation = d.Generation
	cfg.Epochs = 1
	tokens := 0
	for i := range d.Streams {
		if l := len(d.Streams[i].Events); l >= 2 && l <= cfg.MaxLen+1 {
			tokens += l - 1
		}
	}
	if tokens == 0 {
		b.Skip("no eligible streams")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainCPTGPT(d, cfg, CPTGPTTrainOpts{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tokens), "ns/token")
}

func BenchmarkTensorTrainStep(b *testing.B) {
	// One forward+backward of a 2-block transformer over a 64-token stream.
	d, err := synthetic.Generate(synthetic.Config{
		Generation: events.Gen4G, Seed: 1,
		UEs: map[events.DeviceType]int{events.Phone: 50}, Hours: 1, StartHour: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	tok := cptgpt.FitTokenizer(d)
	cfg := cptgpt.DefaultConfig()
	m, err := cptgpt.NewModel(cfg, tok)
	if err != nil {
		b.Fatal(err)
	}
	var enc *tensor.Tensor
	var tg *cptgpt.Targets
	for i := range d.Streams {
		if len(d.Streams[i].Events) >= 32 && len(d.Streams[i].Events) <= cfg.MaxLen {
			if enc, tg, err = tok.EncodeStream(&d.Streams[i]); err != nil {
				b.Fatal(err)
			}
			break
		}
	}
	if enc == nil {
		b.Skip("no suitably long stream")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, err := m.Forward(enc, nil)
		if err != nil {
			b.Fatal(err)
		}
		loss := m.Loss(h, tg)
		loss.Backward()
	}
}

// benchGenerate times batched generation of a fixed UE population and
// reports amortized per-stream latency.
func benchGenerate(b *testing.B, opts cptgpt.GenOpts) {
	b.Helper()
	l := lab(b)
	m, err := l.CPT(events.Phone)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		if _, err := m.Generate(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*opts.NumStreams), "ns/stream")
}

// BenchmarkCPTGPTGeneratePerStream measures the parallel batched engine at
// the default settings (Parallelism = GOMAXPROCS, DefaultBatchSize slots): a
// UE population decoded per op, with amortized ns/stream reported. Compare
// against ...PerStreamSerial for the parallel speedup; both paths emit
// bit-identical streams (see internal/cptgpt batch tests).
func BenchmarkCPTGPTGeneratePerStream(b *testing.B) {
	benchGenerate(b, cptgpt.GenOpts{NumStreams: 64, Device: events.Phone})
}

// BenchmarkCPTGPTGeneratePerStreamSerial is the one-stream-at-a-time
// baseline (Parallelism = 1, BatchSize = 1) over the same population.
func BenchmarkCPTGPTGeneratePerStreamSerial(b *testing.B) {
	benchGenerate(b, cptgpt.GenOpts{NumStreams: 64, Device: events.Phone, Parallelism: 1, BatchSize: 1})
}

// BenchmarkTensorGemmF32Step times the linear layers of ONE F32 decode step
// at the paper-scale architecture — per block Wq/Wk/Wv/Wo (128→128 each),
// feed-forward in (128→1024) and out (1024→128), two blocks, twelve panels
// with their own weights (2.6 MB, what a step streams), packed by
// tensor.PackF32 as nn's export packs them — as the tensor.GemmF32 calls the
// decoder's row body makes, at the row counts it packs: a drained batch (1),
// one 4-row tile (4), one verify chain (5), half a batch (16) and a full one
// (32). µs/row is the GEMM share of a token's cost; GFLOP/s counts 2 per
// multiply-add. Whatever tile set the machine dispatches (AVX-512 where the
// CPU has it, else AVX2, else portable).
func BenchmarkTensorGemmF32Step(b *testing.B) {
	const dm, mlpH, blocks = 128, 1024, 2
	type panel struct {
		in, out int
		w, b    []float32
	}
	rng := stats.NewRand(3)
	randF32 := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(rng.NormFloat64())
		}
		return s
	}
	var panels []panel
	macs := 0
	for blk := 0; blk < blocks; blk++ {
		for _, sh := range [][2]int{{dm, dm}, {dm, dm}, {dm, dm}, {dm, dm}, {dm, mlpH}, {mlpH, dm}} {
			w := make([]float32, sh[0]*sh[1])
			tensor.PackF32(w, randF32(sh[0]*sh[1]), sh[0], sh[1])
			panels = append(panels, panel{sh[0], sh[1], w, randF32(sh[1])})
			macs += sh[0] * sh[1]
		}
	}
	for _, rows := range []int{1, 4, 5, 16, 32} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			narrow, wide := randF32(rows*dm), randF32(rows*mlpH)
			dstNarrow, dstWide := make([]float32, rows*dm), make([]float32, rows*mlpH)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for pi := range panels {
					p := &panels[pi]
					x, dst := narrow, dstNarrow
					if p.in == mlpH {
						x = wide
					}
					if p.out == mlpH {
						dst = dstWide
					}
					tensor.GemmF32(dst, p.w, p.b, x, rows, p.in, p.out)
				}
			}
			sec := b.Elapsed().Seconds()
			b.ReportMetric(2*float64(macs)*float64(rows)*float64(b.N)/sec/1e9, "GFLOP/s")
			b.ReportMetric(sec*1e6/float64(b.N*rows), "µs/row")
		})
	}
}

// BenchmarkTensorGeluF32 times the feed-forward activation over one decode
// step's worth of hidden rows (32 × 1024): tensor.GeluF32 as the machine
// dispatches it (the AVX2 8-lane kernel here) and with the assembly switch
// off — the scalar code that is its tail, its test reference and every
// non-AVX2 machine's path. Both compute the same bits. Each iteration works
// on a fresh copy (GELU applied to its own output decays into subnormals).
func BenchmarkTensorGeluF32(b *testing.B) {
	rng := stats.NewRand(4)
	src := make([]float32, 32*1024)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	x := make([]float32, len(src))
	for _, asm := range []bool{true, false} {
		b.Run(fmt.Sprintf("asm=%v", asm), func(b *testing.B) {
			defer tensor.SetGemmF32Asm(tensor.SetGemmF32Asm(asm))
			for i := 0; i < b.N; i++ {
				copy(x, src)
				tensor.GeluF32(x)
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N*len(x)), "ns/element")
		})
	}
}

// paperScaleModel builds an untrained CPT-GPT at the paper's tuned
// architecture (2 blocks, d_model 128, MLP hidden 1024 — 725K parameters,
// ~5.2 MB of float64 weights), the regime where decode is memory-bandwidth
// bound and the float32 path's halved traffic shows up. Weights are random:
// kernel cost is independent of training.
func paperScaleModel(b *testing.B) *cptgpt.Model {
	b.Helper()
	d, err := synthetic.Generate(synthetic.Config{
		Generation: events.Gen4G, Seed: 12,
		UEs: map[events.DeviceType]int{events.Phone: 20}, Hours: 1, StartHour: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := cptgpt.DefaultConfig()
	cfg.DModel = 128
	cfg.Heads = 4
	cfg.MLPHidden = 1024
	cfg.HeadHidden = 64
	cfg.MaxLen = 256
	m, err := cptgpt.NewModel(cfg, cptgpt.FitTokenizer(d))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkCPTGPTModelLoad times what every cptsynth or cptscenario run,
// and a daemon's first run of a cptgpt source, pays before its first
// decode step: LoadFile of a paper-shape model file (6.5 MB) and the
// float32 freeze (Infer). Setup saves the file once; each op reads it
// back.
func BenchmarkCPTGPTModelLoad(b *testing.B) {
	path := filepath.Join(b.TempDir(), "model.bin")
	if err := paperScaleModel(b).SaveFile(path); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := cptgpt.LoadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		m.Infer()
	}
}

// BenchmarkCPTGPTDecodeTokenF32 measures raw BatchDecoder throughput — ns
// per decoded token — at the paper-scale architecture, pinned to one worker
// so the number isolates kernel and memory-traffic effects from pool
// sharding. Every step advances all slots, so this is the dense upper bound
// the schedulers feed: all 16 slots' rows packed through one
// tensor.GemmF32 per layer. Expected ≈ 23–25 µs/token with the AVX-512 GEMM
// tiles and ≈ 30 with the AVX2 ones on a 2-vCPU Xeon VM (≈ 17× fewer
// ns/token than the float64 decode it replaced; 51–55 µs before the panel
// GEMM and the attention kernel, ≈ 260–330 µs with the portable kernels).
// internal/cptgpt's fidelity tests bound what the speed costs: ~1e-6 logit
// drift, indistinguishable trace statistics.
func BenchmarkCPTGPTDecodeTokenF32(b *testing.B) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	m := paperScaleModel(b)
	const slots, steps = 16, 64
	dec := m.NewBatchDecoder(slots, cptgpt.F32)
	dim := m.Tok.Dim()
	toks := make([]float64, slots*dim)
	all := make([]int, slots)
	for i := range all {
		all[i] = i
		toks[i*dim+1] = 1 // one-hot event 0, interarrival 0, stop 0
		toks[i*dim+dim-2] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Reset()
		for s := 0; s < steps; s++ {
			dec.Step(all, toks)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slots*steps), "ns/token")
}

// BenchmarkCPTGPTGenerateSkewedContinuous times end-to-end plain generation
// of a population whose stream lengths are heavily skewed (an untrained
// model's stop head fires geometrically, so most streams are short and a tail
// runs long — the shape real scenarios produce; here: mean ≈ 12 tokens,
// p99 ≈ 65). The call's whole budget is one core (Parallelism: 1: one decoder,
// every pass inline on its goroutine), so the number is per core. The
// scheduler reseats a retired slot immediately, keeping every GEMM many rows
// tall; a scheduler that retired each batch whole drained it down to its
// longest stream, so its tail passes ran one- and two-row GEMMs that stream
// every weight panel for almost nothing — 37.0–41.1 µs/token against
// 34.2–34.9 here in the last comparison (bench/baseline.txt), with
// bit-identical streams. The decode's row-packed GEMMs are where the
// amortization lives.
func BenchmarkCPTGPTGenerateSkewedContinuous(b *testing.B) {
	m := paperScaleModel(b)
	opts := cptgpt.GenOpts{
		NumStreams: 256, Device: events.Phone, Seed: 42,
		Parallelism: 1, BatchSize: 32,
	}
	// One warm-up run counts the emitted tokens for the ns/token metric
	// (fixed seed, so every iteration emits the same population).
	warm, err := m.Generate(opts)
	if err != nil {
		b.Fatal(err)
	}
	tokens := 0
	for i := range warm.Streams {
		tokens += len(warm.Streams[i].Events)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Generate(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*opts.NumStreams), "ns/stream")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tokens), "ns/token")
}

// BenchmarkCPTGPTDecodeSpeculativeF32 measures speculative decoding end to
// end on the same skewed population as ...GenerateSkewedContinuous: draft
// chains of k=4 from the model's self-fitted n-gram, one multi-token verify
// pass per chain, exact acceptance–rejection. Reported ns/token counts EMITTED tokens, the
// apples-to-apples throughput currency against the plain decode
// benchmarks; accept% is the fraction of drafted tokens that survived
// verification (from BatchDecoder.Stats via GenOpts.Stats). Like
// ...GenerateSkewedContinuous the call's budget is one core (Parallelism: 1,
// every verify pass inline), so the two compare per core.
//
// Both run the same row-packed GEMM body, so a verified position costs
// about what a plain token does and speculation wins only when more than
// one position per verified row is emitted: at this untrained model's ~40%
// acceptance it runs ≈ 2× SLOWER per emitted token than plain (it was
// ≈ 1.7× faster while plain decode still ran scalar matvecs).
func BenchmarkCPTGPTDecodeSpeculativeF32(b *testing.B) {
	m := paperScaleModel(b)
	var st cptgpt.DecodeStats
	opts := cptgpt.GenOpts{
		NumStreams: 256, Device: events.Phone, Seed: 42,
		Parallelism: 1, BatchSize: 32,
		Speculative: true, DraftTokens: 4, Stats: &st,
	}
	// Warm-up fits and caches the self-draft outside the timed region and
	// counts the emitted tokens (fixed seed: identical every iteration).
	warm, err := m.Generate(opts)
	if err != nil {
		b.Fatal(err)
	}
	tokens := 0
	for i := range warm.Streams {
		tokens += len(warm.Streams[i].Events)
	}
	st = cptgpt.DecodeStats{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Generate(opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*opts.NumStreams), "ns/stream")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tokens), "ns/token")
	if st.DraftProposed > 0 {
		b.ReportMetric(100*float64(st.DraftAccepted)/float64(st.DraftProposed), "accept%")
	}
}

// BenchmarkCPTGPTVerifyKTokens measures the raw multi-token verify kernel:
// ns per verified position when every slot consumes k=4-token chains
// through StepK, against BenchmarkCPTGPTDecodeTokenF32's single-token
// stepping over the same model shape. The two run one row body, so the
// numbers agree to within what taller GEMMs (64 rows against 16) save.
func BenchmarkCPTGPTVerifyKTokens(b *testing.B) {
	prev := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prev)
	m := paperScaleModel(b)
	const slots, k, rounds = 16, 4, 16
	dec := m.NewBatchDecoder(slots, cptgpt.F32)
	dim := m.Tok.Dim()
	toks := make([]float64, slots*k*dim)
	all := make([]int, slots)
	ks := make([]int, slots)
	for i := range all {
		all[i] = i
		ks[i] = k
		for r := 0; r < k; r++ {
			toks[(i*k+r)*dim+1] = 1 // one-hot event 0, interarrival 0, stop 0
			toks[(i*k+r)*dim+dim-2] = 1
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Reset()
		for s := 0; s < rounds; s++ {
			dec.StepK(all, ks, k, toks)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*slots*k*rounds), "ns/token")
}

func BenchmarkSMMGenerate1000(b *testing.B) {
	l := lab(b)
	m, err := l.SMM(events.Phone, true)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Generate(smm.GenOpts{NumStreams: 1000, Device: events.Phone, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// closedBenchSource feeds n attach/detach events with 10ms trace spacing.
type closedBenchSource struct{ i, n int }

func (s *closedBenchSource) NextArrival() (trace.Arrival, bool, error) {
	if s.i >= s.n {
		return trace.Arrival{}, false, nil
	}
	ev := trace.Arrival{Time: float64(s.i) * 0.01, UE: uint64((s.i / 2) % 32), Type: events.Attach}
	if s.i%2 == 1 {
		ev.Type = events.Detach
	}
	s.i++
	return ev, true, nil
}

// BenchmarkReplayClosedLoopPerEvent measures the acknowledged closed-loop
// replay transport end to end over loopback TCP: sequenced SEVENT frames
// out, cumulative ACKs back, CUBIC window growth, RTT estimation and
// latency-histogram accounting all on the measured path. Reported as
// amortized ns per acknowledged signaling transaction.
func BenchmarkReplayClosedLoopPerEvent(b *testing.B) {
	srv, err := replaynet.ListenAndServe("127.0.0.1:0", events.Gen4G)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	const n = 5000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := replaynet.ReplayClosed(srv.Addr().String(), events.Gen4G,
			&closedBenchSource{n: n}, replaynet.ClosedOpts{SessionID: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		if st.Acked != n {
			b.Fatalf("acked %d, want %d", st.Acked, n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
}

func BenchmarkReplayValidation(b *testing.B) {
	d, err := synthetic.Generate(synthetic.Config{
		Generation: events.Gen4G, Seed: 2,
		UEs: map[events.DeviceType]int{events.Phone: 200}, Hours: 1, StartHour: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		metrics.Replay(d)
	}
	b.ReportMetric(float64(d.NumEvents()), "events/op")
}

// BenchmarkTraceJSONLRoundTrip writes a 100-UE hour as jsonl event lines
// (trace.SaveFile) and reads it back grouped by UE (trace.LoadFile).
func BenchmarkTraceJSONLRoundTrip(b *testing.B) {
	d, err := synthetic.Generate(synthetic.Config{
		Generation: events.Gen4G, Seed: 3,
		UEs: map[events.DeviceType]int{events.Phone: 100}, Hours: 1, StartHour: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "t.jsonl")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := trace.SaveFile(path, d); err != nil {
			b.Fatal(err)
		}
		back, err := trace.LoadFile(path, d.Generation)
		if err != nil {
			b.Fatal(err)
		}
		if back.NumStreams() != d.NumStreams() {
			b.Fatalf("read %d streams, wrote %d", back.NumStreams(), d.NumStreams())
		}
	}
}

// benchScenario drains a built-in scenario once per op and reports
// amortized ns/event through the full pipeline (generate → transform →
// spill → merge).
func benchScenario(b *testing.B, name string, ues int, opts scenario.RunOpts) {
	b.Helper()
	spec, err := scenario.Builtin(name)
	if err != nil {
		b.Fatal(err)
	}
	opts.UEs = ues
	benchScenarioSpec(b, spec, opts)
}

func benchScenarioSpec(b *testing.B, spec *scenario.Spec, opts scenario.RunOpts) {
	b.Helper()
	// One warm-up run sizes the event count for the per-event metric.
	st, err := spec.Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	sum, err := scenario.Drain(st)
	st.Close()
	if err != nil {
		b.Fatal(err)
	}
	if sum.Events == 0 {
		b.Fatal("scenario emitted no events")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := spec.Open(opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := scenario.Drain(st); err != nil {
			b.Fatal(err)
		}
		st.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sum.Events), "ns/event")
}

// BenchmarkScenarioMergePerEvent measures the streaming scenario pipeline
// end-to-end on the flash-crowd preset and reports amortized ns/event —
// the currency of the "millions of users" north star (1M UEs ≈ 33M events
// at this preset's shape).
func BenchmarkScenarioMergePerEvent(b *testing.B) {
	benchScenario(b, "flash-crowd", 2000, scenario.RunOpts{})
}

// BenchmarkScenarioMergePerEventNarrow forces the hierarchical merge path
// (tiny chunks, fan-in 4) over the same workload — the spill/merge overhead
// bound.
func BenchmarkScenarioMergePerEventNarrow(b *testing.B) {
	benchScenario(b, "flash-crowd", 2000, scenario.RunOpts{BatchSize: 64, MaxFanIn: 4})
}

// BenchmarkScenarioModelSource drains a scenario whose only source is a
// paper-scale model on the F32 path, 512 UEs per op, cut into one chunk
// (fewer chunks than cores: the chunk's decoder fans each step over the whole
// core budget) and into sixteen (a chunk worker per core, every step inline).
// The two shapes of the generation phase's one core budget; the repo's
// benchmark covers only the second (gpt-plain: two chunks on two cores).
func BenchmarkScenarioModelSource(b *testing.B) {
	m := paperScaleModel(b)
	spec := &scenario.Spec{
		Name: "bench-model", Generation: "4G", Seed: 7, HorizonSec: 3600, Population: 512,
		Sources: []scenario.SourceSpec{{ID: "gpt", Kind: "cptgpt", ModelFile: "in-memory", Share: 1}},
	}
	load := func(string) (*cptgpt.Model, error) { return m, nil }
	for _, chunks := range []int{1, 16} {
		b.Run(fmt.Sprintf("chunks=%d", chunks), func(b *testing.B) {
			benchScenarioSpec(b, spec, scenario.RunOpts{BatchSize: 512 / chunks, LoadModel: load})
		})
	}
}

// BenchmarkScenarioFlashCrowd runs a 10k-UE flash crowd into the MCN sink
// per op — the full scenario → simulator pipeline. The alloc guard for
// bounded-memory streaming is TestBoundedMemoryStreaming in
// internal/scenario; here the per-op heap is reported as a metric via
// ReportAllocs for trend tracking.
func BenchmarkScenarioFlashCrowd(b *testing.B) {
	spec, err := scenario.Builtin("flash-crowd")
	if err != nil {
		b.Fatal(err)
	}
	cfg := mcn.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := spec.Open(scenario.RunOpts{UEs: 10000})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := scenario.RunMCN(st, cfg)
		if err != nil {
			b.Fatal(err)
		}
		st.Close()
		if i == 0 {
			b.ReportMetric(float64(rep.Events), "events/op")
		}
	}
}

// BenchmarkTracezSpanDisabled measures the flight recorder's disabled-path
// cost at an instrumented call site: one atomic load in Begin, one in End.
// This is the overhead every hot loop pays when tracing is off, so it must
// stay in the low single nanoseconds.
func BenchmarkTracezSpanDisabled(b *testing.B) {
	tracez.Disable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tracez.Begin(tracez.StageDecodeStep, "")
		sp.End(1, "")
	}
}

// BenchmarkTracezSpanEnabled measures the full recording path: timestamping,
// one span allocation, the ring store and the stage-aggregate updates.
func BenchmarkTracezSpanEnabled(b *testing.B) {
	tracez.Enable()
	defer func() {
		tracez.Disable()
		tracez.Reset()
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tracez.Begin(tracez.StageDecodeStep, "")
		sp.End(1, "")
	}
}

// BenchmarkTelemetryHistogramObserve measures one lock-free histogram
// sample: a log-bucket index, an atomic bucket add and the CAS sum loop.
func BenchmarkTelemetryHistogramObserve(b *testing.B) {
	h := telemetry.NewHistogram(telemetry.LatencyBuckets)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
}

// BenchmarkRunlogAppend measures one checkpoint append to the write-ahead
// run journal: JSON encode, CRC, frame header and the record's one
// write(2), plus any wait behind the deferred fsync (at most one per
// 100 ms). This is the per-checkpoint tax every durable run pays: a few
// microseconds, with no allocation.
func BenchmarkRunlogAppend(b *testing.B) {
	j, err := runlog.Create(filepath.Join(b.TempDir(), "bench"+runlog.Ext), runlog.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	j.AppendBegin(runlog.Begin{RunID: "run-1", Scenario: "flash-crowd", Sink: "jsonl", UEs: 1000})
	c := runlog.Checkpoint{
		Time: 123.456789, UE: 982451653, Seq: 31,
		Events: 1 << 20, SinkBytes: 1 << 27,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Events++
		j.AppendCheckpoint(c)
	}
}

// BenchmarkAdmissionCheck measures the daemon's POST /runs admission fast
// path with every limit armed: three atomic loads against the resource
// ledger, no locks. Every submission pays this before anything else, so
// it must stay well under a microsecond.
func BenchmarkAdmissionCheck(b *testing.B) {
	s := served.New(served.Options{
		TempDir:       b.TempDir(),
		MaxActiveRuns: 64,
		MaxTotalUEs:   1 << 20,
		MaxSpillBytes: 1 << 34,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Close(ctx)
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.CheckAdmission(1000); err != nil {
			b.Fatal(err)
		}
	}
}
