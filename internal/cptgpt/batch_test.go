package cptgpt

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/stats"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
)

// serialReference generates opts.NumStreams streams through the serial
// one-stream-at-a-time decoder — the reference the batched engine must
// reproduce bit-for-bit.
func serialReference(t *testing.T, m *Model, opts GenOpts) []trace.Stream {
	t.Helper()
	if opts.Temperature <= 0 {
		opts.Temperature = 1 // Generate's own normalization
	}
	init, err := stats.NewCategorical(m.InitialDist)
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]trace.Stream, opts.NumStreams)
	for i := range streams {
		rng := stats.NewRand(streamSeed(opts.Seed, i))
		streams[i] = m.sampleStream(i, opts, init, rng)
	}
	return streams
}

// sameStreams requires exact equality — identical event types and
// bit-identical timestamps — between two generated stream sets.
func sameStreams(t *testing.T, label string, want, got []trace.Stream) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d streams, want %d", label, len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.UEID != g.UEID || w.Device != g.Device {
			t.Fatalf("%s: stream %d identity %s/%s, want %s/%s", label, i, g.UEID, g.Device, w.UEID, w.Device)
		}
		if len(w.Events) != len(g.Events) {
			t.Fatalf("%s: stream %d has %d events, want %d", label, i, len(g.Events), len(w.Events))
		}
		for j := range w.Events {
			if w.Events[j].Type != g.Events[j].Type || w.Events[j].Time != g.Events[j].Time {
				t.Fatalf("%s: stream %d event %d = (%v, %s), want (%v, %s)",
					label, i, j, g.Events[j].Time, g.Events[j].Type, w.Events[j].Time, w.Events[j].Type)
			}
		}
	}
}

// TestBatchedGenerateMatchesSerial is the determinism guarantee of the
// batched engine: for a fixed seed, Generate emits bit-identical streams at
// every Parallelism × BatchSize combination, all equal to the serial
// reference path.
func TestBatchedGenerateMatchesSerial(t *testing.T) {
	d := testTrainingData(t, 60)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}

	base := GenOpts{NumStreams: 23, Device: events.Phone, Seed: 99, StartWindow: 30}
	want := serialReference(t, m, base)

	for _, c := range []struct{ par, batch int }{
		{1, 1}, {1, 23}, {8, 1}, {8, 4}, {3, 7}, {8, 64},
	} {
		opts := base
		opts.Parallelism = c.par
		opts.BatchSize = c.batch
		got, err := m.Generate(opts)
		if err != nil {
			t.Fatal(err)
		}
		sameStreams(t, fmt.Sprintf("parallelism=%d batch=%d", c.par, c.batch), want, got.Streams)
	}
}

// TestBatchedGenerateNoDistHead covers the Table 8 ablation path (scalar
// interarrival head) through the batched engine.
func TestBatchedGenerateNoDistHead(t *testing.T) {
	d := testTrainingData(t, 60)
	tk := FitTokenizer(d)
	cfg := smallConfig()
	cfg.DistHead = false
	m, err := NewModel(cfg, tk)
	if err != nil {
		t.Fatal(err)
	}
	base := GenOpts{NumStreams: 9, Device: events.Tablet, Seed: 5}
	want := serialReference(t, m, base)
	got, err := m.Generate(GenOpts{NumStreams: 9, Device: events.Tablet, Seed: 5, Parallelism: 4, BatchSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	sameStreams(t, "no-dist-head", want, got.Streams)
}

// TestBatchDecoderMatchesDecoder steps the same token sequences through the
// serial decoder and through interleaved BatchDecoder slots, requiring
// bit-identical head outputs at every position.
func TestBatchDecoderMatchesDecoder(t *testing.T) {
	d := testTrainingData(t, 40)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	dim := tk.Dim()

	// Collect a few encodable streams' token matrices.
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

	bd := m.NewBatchDecoder(len(encs), F64)
	serial := make([]*decoder, len(encs))
	for i := range serial {
		serial[i] = newDecoder(m)
	}

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
			for k := range want.EventLogits {
				if want.EventLogits[k] != got.EventLogits[k] {
					t.Fatalf("slot %d step %d event logit %d: %v != %v", slot, step, k, got.EventLogits[k], want.EventLogits[k])
				}
			}
			if want.IAMean != got.IAMean || want.IALogStd != got.IALogStd || want.StopLogits != got.StopLogits {
				t.Fatalf("slot %d step %d heads differ: got (%v %v %v), want (%v %v %v)",
					slot, step, got.IAMean, got.IALogStd, got.StopLogits, want.IAMean, want.IALogStd, want.StopLogits)
			}
		}
	}
}

// TestSlotRefillMidBatch is the regression test for the slot-reset contract
// continuous batching relies on: a slot that retires mid-batch (its stream
// ended) is ResetSlot and reseated with a fresh stream while the other slot
// keeps decoding at a deeper position, and every output — before and after
// the refill, in both precisions — must equal decoding each stream in a
// decoder of its own. A stale score row, KV row or position after the reset
// would show up here immediately.
func TestSlotRefillMidBatch(t *testing.T) {
	d := testTrainingData(t, 40)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	dim := tk.Dim()

	var encs []*tensor.Tensor
	for i := range d.Streams {
		if len(d.Streams[i].Events) >= 5 && len(d.Streams[i].Events) <= m.Cfg.MaxLen {
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
	if len(encs) < 3 {
		t.Skip("not enough suitable streams in tiny dataset")
	}
	a, bs, c := encs[0], encs[1], encs[2]
	// Truncate A so it retires strictly before B, forcing a mid-batch refill.
	aRows := min(3, bs.Rows-1)

	for _, prec := range []Precision{F64, F32} {
		// Reference: each stream decoded alone in a single-slot decoder of
		// the same precision (bit-identical kernels, so exact equality).
		ref := func(enc *tensor.Tensor, rows int) []StepOut {
			rd := m.NewBatchDecoder(1, prec)
			outs := make([]StepOut, rows)
			for s := 0; s < rows; s++ {
				o := rd.Step([]int{0}, enc.Data[s*dim:(s+1)*dim])[0]
				o.EventLogits = append([]float64(nil), o.EventLogits...)
				outs[s] = o
			}
			return outs
		}
		wantA := ref(a, aRows)
		wantB := ref(bs, bs.Rows)
		wantC := ref(c, c.Rows)

		same := func(label string, got, want StepOut) {
			t.Helper()
			for k := range want.EventLogits {
				if got.EventLogits[k] != want.EventLogits[k] {
					t.Fatalf("%s %s: event logit %d = %v, want %v", prec, label, k, got.EventLogits[k], want.EventLogits[k])
				}
			}
			sameNaN := math.IsNaN(got.IALogStd) && math.IsNaN(want.IALogStd)
			if got.IAMean != want.IAMean || (got.IALogStd != want.IALogStd && !sameNaN) || got.StopLogits != want.StopLogits {
				t.Fatalf("%s %s: heads differ: got (%v %v %v), want (%v %v %v)",
					prec, label, got.IAMean, got.IALogStd, got.StopLogits, want.IAMean, want.IALogStd, want.StopLogits)
			}
		}

		bd := m.NewBatchDecoder(2, prec)
		toks := make([]float64, 2*dim)
		// Phase 1: A in slot 0, B in slot 1, until A retires.
		for s := 0; s < aRows; s++ {
			copy(toks[0:dim], a.Data[s*dim:(s+1)*dim])
			copy(toks[dim:2*dim], bs.Data[s*dim:(s+1)*dim])
			outs := bd.Step([]int{0, 1}, toks)
			same(fmt.Sprintf("A step %d", s), outs[0], wantA[s])
			same(fmt.Sprintf("B step %d", s), outs[1], wantB[s])
		}
		// Refill: seat C in slot 0 while B keeps decoding at position aRows.
		bd.ResetSlot(0)
		if bd.Pos(0) != 0 || bd.Pos(1) != aRows {
			t.Fatalf("%s: after ResetSlot(0): pos = (%d, %d), want (0, %d)", prec, bd.Pos(0), bd.Pos(1), aRows)
		}
		for s := 0; ; s++ {
			var slots []int
			if s < c.Rows {
				slots = append(slots, 0)
				copy(toks[0:dim], c.Data[s*dim:(s+1)*dim])
			}
			if aRows+s < bs.Rows {
				slots = append(slots, 1)
				copy(toks[dim:2*dim], bs.Data[(aRows+s)*dim:(aRows+s+1)*dim])
			}
			if len(slots) == 0 {
				break
			}
			outs := bd.Step(slots, toks)
			for j, slot := range slots {
				if slot == 0 {
					same(fmt.Sprintf("C step %d", s), outs[j], wantC[s])
				} else {
					same(fmt.Sprintf("B step %d", aRows+s), outs[j], wantB[aRows+s])
				}
			}
		}
		st := bd.Stats()
		if st.Steps == 0 || st.SlotSteps == 0 {
			t.Fatalf("%s: Stats() = %+v, want non-zero scheduling counters", prec, st)
		}
	}
}

// TestGenerateRangeMatchesGenerate pins the chunked-emission contract: any
// partition of the stream index space concatenates to exactly the streams
// Generate produces, at any BatchSize — and whatever NumStreams the range
// calls carry: the range alone sizes them (the scenario engine passes 0).
func TestGenerateRangeMatchesGenerate(t *testing.T) {
	d := testTrainingData(t, 60)
	tk := FitTokenizer(d)
	m, err := NewModel(smallConfig(), tk)
	if err != nil {
		t.Fatal(err)
	}
	opts := GenOpts{NumStreams: 19, Device: events.Tablet, Seed: 5, StartWindow: 10}
	full, err := m.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 4, 19} {
		for _, batch := range []int{1, 3, 8} {
			for _, numStreams := range []int{opts.NumStreams, 0} {
				var got []trace.Stream
				for lo := 0; lo < opts.NumStreams; lo += chunk {
					o := opts
					o.BatchSize = batch
					o.NumStreams = numStreams
					part, err := m.GenerateRange(lo, min(lo+chunk, opts.NumStreams), o)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, part...)
				}
				sameStreams(t, fmt.Sprintf("chunk=%d batch=%d NumStreams=%d", chunk, batch, numStreams), full.Streams, got)
			}
		}
	}
	if _, err := m.GenerateRange(3, 1, opts); err == nil {
		t.Fatal("inverted range must error")
	}
}

// TestGenerateRangeReusesDecoders pins decoder reuse across calls: a
// GenerateRange call on a model whose earlier calls left decoders in its
// pool — slots at stale positions, counters already run up — emits the
// streams and reports the DecodeStats of the same call on a model that has
// never decoded, at both precisions, plain and speculative.
func TestGenerateRangeReusesDecoders(t *testing.T) {
	d := testTrainingData(t, 60)
	tk := FitTokenizer(d)
	for _, prec := range []Precision{F64, F32} {
		for _, spec := range []bool{false, true} {
			name := fmt.Sprintf("%s speculative=%v", prec, spec)
			opts := GenOpts{Device: events.Phone, Seed: 8, Precision: prec, Parallelism: 1, BatchSize: 5,
				Speculative: spec, DraftTokens: 2}
			call := func(m *Model, lo, hi int) ([]trace.Stream, DecodeStats) {
				var st DecodeStats
				o := opts
				o.Stats = &st
				streams, err := m.GenerateRange(lo, hi, o)
				if err != nil {
					t.Fatal(err)
				}
				return streams, st
			}
			fresh, err := NewModel(smallConfig(), tk)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats := call(fresh, 9, 23)

			used, err := NewModel(smallConfig(), tk)
			if err != nil {
				t.Fatal(err)
			}
			call(used, 0, 9)
			// Also leave a decoder whose every slot sits deep in a foreign
			// stream, so at least one pooled decoder is certainly stale.
			dirty := used.NewBatchDecoder(opts.BatchSize, prec)
			slots := []int{0, 1, 2, 3, 4}
			toks := make([]float64, len(slots)*tk.Dim())
			for i := range slots {
				tk.writeToken(toks[i*tk.Dim():(i+1)*tk.Dim()], i%tk.V(), 0.3, 0)
			}
			for p := 0; p < 7; p++ {
				dirty.Step(slots, toks)
			}
			used.decoderPool(opts.BatchSize, prec).Put(dirty)

			got, gotStats := call(used, 9, 23)
			sameStreams(t, name, want, got)
			if gotStats != wantStats {
				t.Fatalf("%s: reused decoders report %+v, a fresh model %+v", name, gotStats, wantStats)
			}
		}
	}
}

// TestDecodeParallelismBudget pins the one-budget rule: a decode call fans
// its steps over the share of GenOpts.Parallelism each of its decoders owns,
// not over the tensor layer's global degree. With that degree at 4,
// GenerateRange at Parallelism 1 runs every step inline (the worker pool
// executes nothing); Generate at Parallelism 4 over two batches runs two
// decoders that each split a step in two (the pool works); and a decoder made
// directly keeps the global degree (the pool works). All three emit the same
// streams.
func TestDecodeParallelismBudget(t *testing.T) {
	d := testTrainingData(t, 60)
	m, err := NewModel(smallConfig(), FitTokenizer(d))
	if err != nil {
		t.Fatal(err)
	}
	defer tensor.SetParallelism(tensor.SetParallelism(4))
	opts := GenOpts{NumStreams: 64, Device: events.Phone, Seed: 9, Temperature: 1, StartWindow: 10, Precision: F32, BatchSize: 32}

	// poolShards runs f and returns how many shards the tensor worker pool
	// executed meanwhile.
	poolShards := func(f func()) int64 {
		before := tensor.PoolLoad().ValidPolls
		f()
		return tensor.PoolLoad().ValidPolls - before
	}

	var inline, direct []trace.Stream
	var budgeted *trace.Dataset
	if n := poolShards(func() {
		o := opts
		o.Parallelism = 1
		inline, err = m.GenerateRange(0, opts.NumStreams, o)
	}); err != nil || n != 0 {
		t.Fatalf("GenerateRange at Parallelism 1: %d pool shards (want 0: steps run inline), err %v", n, err)
	}
	if n := poolShards(func() {
		o := opts
		o.Parallelism = 4
		budgeted, err = m.Generate(o)
	}); err != nil || n == 0 {
		t.Fatalf("Generate at Parallelism 4 over two batches: %d pool shards (want > 0: fan-out 2 per decoder), err %v", n, err)
	}
	if n := poolShards(func() {
		init, err := stats.NewCategorical(m.InitialDist)
		if err != nil {
			t.Fatal(err)
		}
		direct = make([]trace.Stream, opts.NumStreams)
		var next atomic.Int64
		m.sampleSlots(m.NewBatchDecoder(opts.BatchSize, F32), direct, 0, &next, opts, init, nil)
	}); n == 0 {
		t.Fatal("a directly made decoder ran no pool shards (want the global degree, 4)")
	}
	sameStreams(t, "Generate P=4 vs GenerateRange P=1", inline, budgeted.Streams)
	sameStreams(t, "direct decoder vs GenerateRange P=1", inline, direct)
}
