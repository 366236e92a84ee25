package cptgpt

import (
	"sync/atomic"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/stats"
	"cptgpt/internal/synthetic"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
)

// Scheduling benchmark with the slot-utilization metric the public
// (root-package) benchmarks cannot see: it drives sampleSlots directly over
// one decoder and reports slotSteps / (steps × capacity) from
// BatchDecoder.Stats — the fraction of the decoder's batch bandwidth doing
// useful work. On skewed stream-length populations a scheduler that retired
// each batch whole would drain it down to its longest stream (29.9 % on this
// population when that was last measured); continuous batching reseats
// retired slots immediately.

// BenchmarkSchedulingContinuous reports the scheduler's utilization and
// per-stream cost on the skewed population, decoding plainly.
func BenchmarkSchedulingContinuous(b *testing.B) {
	prevPar := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prevPar)

	d, err := synthetic.Generate(synthetic.Config{
		Generation: events.Gen4G, Seed: 12,
		UEs: map[events.DeviceType]int{events.Phone: 30}, Hours: 1, StartHour: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Untrained model: the stop head fires near-geometrically, the skewed
	// stream-length regime where scheduling matters.
	m, err := NewModel(smallConfig(), FitTokenizer(d))
	if err != nil {
		b.Fatal(err)
	}
	init, err := stats.NewCategorical(m.InitialDist)
	if err != nil {
		b.Fatal(err)
	}
	const slots = 32
	opts := GenOpts{NumStreams: 512, Device: events.Phone, Seed: 9, Temperature: 1}
	dec := m.NewBatchDecoder(slots, F64)
	streams := make([]trace.Stream, opts.NumStreams)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range streams {
			streams[j] = trace.Stream{}
		}
		var next atomic.Int64
		m.sampleSlots(dec, streams, 0, &next, opts, init, nil)
	}
	b.StopTimer()
	st := dec.Stats()
	b.ReportMetric(100*float64(st.SlotSteps)/(float64(st.Steps)*slots), "util%")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*opts.NumStreams), "ns/stream")
}
