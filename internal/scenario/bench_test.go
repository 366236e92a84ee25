package scenario

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"cptgpt/internal/trace"
)

// benchChunk is a chunk shaped like the flash-crowd preset's: n events in
// (UE, Seq) order, ~33 per UE, times uniform over an hour.
func benchChunk(n int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	return randomChunk(rng, n, 65, func() float64 { return rng.Float64() * 3600 })
}

// BenchmarkScenarioChunkSort measures the chunk sort alone at the two chunk
// sizes that matter: ~8k events (cptbench's synth-count, 256 streams) and
// ~35k (the default 1024-stream chunk).
func BenchmarkScenarioChunkSort(b *testing.B) {
	for _, n := range []int{8_000, 35_000} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			evs := benchChunk(n, 1)
			var sorter chunkSorter
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sorter.order(evs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
		})
	}
}

// BenchmarkScenarioRunCodec measures the run-file path alone: 64 sorted
// 8k-event chunks written as run files, then read back through one 64-way
// merge (DefaultMaxFanIn) — per event, one encode + block write and one
// block read + decode + heap step. The sub-benchmarks run the merge at
// degree 1 (one heap) and 2 (two sub-merges under a root heap), so the
// merge layer's use of a second core shows on its own.
func BenchmarkScenarioRunCodec(b *testing.B) {
	const fanIn, perRun = DefaultMaxFanIn, 8_000
	var sorter chunkSorter
	chunks := make([][]Event, fanIn)
	orders := make([][]sortKey, fanIn)
	for i := range chunks {
		chunks[i] = benchChunk(perRun, int64(i))
		orders[i] = append([]sortKey(nil), sorter.order(chunks[i])...)
	}
	for _, degree := range []int{1, 2} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			dir := b.TempDir()
			runs := make([]run, fanIn)
			var writing time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				for j := range chunks {
					var err error
					if runs[j], err = writeRun(filepath.Join(dir, fmt.Sprintf("run-%d.bin", j)), chunks[j], orders[j], nil, nil); err != nil {
						b.Fatal(err)
					}
				}
				writing += time.Since(start)
				m, err := openMerger(runs, degree)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					if _, ok := m.next(); !ok {
						break
					}
					n++
				}
				m.close()
				if m.err != nil || n != fanIn*perRun {
					b.Fatalf("merged %d of %d events, err %v", n, fanIn*perRun, m.err)
				}
			}
			total := float64(b.N * fanIn * perRun)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/event")
			b.ReportMetric(float64(writing.Nanoseconds())/total, "write-ns/event")
			b.ReportMetric(float64((b.Elapsed()-writing).Nanoseconds())/total, "merge-ns/event")
		})
	}
}

// BenchmarkScenarioLineWriter measures the serial line encoder alone
// (eventWriter over trace.LineWriter.Write, the reference the file sinks
// are held to), into io.Discard: one op is 65 536 events (2 sources × 5000
// UEs), one line each, UE id rendering and block writes included.
// TestLineWriterZeroAllocs asserts the 0 allocs/event.
func BenchmarkScenarioLineWriter(b *testing.B) {
	st, evs := benchEvents(1 << 16)
	for _, format := range []string{"jsonl", "csv"} {
		b.Run(format, func(b *testing.B) {
			ew, err := newEventWriter(io.Discard, format, st, true)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, e := range evs {
					if err := ew.write(e); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := ew.lw.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
		})
	}
}

// BenchmarkScenarioLineRender measures, on one goroutine, the work the
// file sink splits between its encoders and its writer: the same events
// rendered into trace.Lines sinkBatch at a time, as an encoder does, and
// handed to a LineWriter over io.Discard, as the writer does. Against
// BenchmarkScenarioLineWriter it shows what the split costs in CPU.
func BenchmarkScenarioLineRender(b *testing.B) {
	st, evs := benchEvents(1 << 16)
	for _, format := range []string{"jsonl", "csv"} {
		b.Run(format, func(b *testing.B) {
			lw, err := trace.NewLineWriter(io.Discard, format, true)
			if err != nil {
				b.Fatal(err)
			}
			var ls trace.Lines
			var id []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < len(evs); lo += sinkBatch {
					ls.Reset()
					for _, e := range evs[lo:min(lo+sinkBatch, len(evs))] {
						id = st.AppendUEID(id[:0], e)
						ls.Append(lw.Appender(), e.Time, id, e.Device, e.Type)
					}
					if err := lw.WriteLines(&ls); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := lw.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
		})
	}
}

// BenchmarkScenarioUEID measures rendering the same events' UE ids by
// appending, as the encoder does.
func BenchmarkScenarioUEID(b *testing.B) {
	st, evs := benchEvents(1 << 16)
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range evs {
			buf = st.AppendUEID(buf[:0], e)
		}
	}
	if len(buf) == 0 {
		b.Fatal("empty id")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}

// BenchmarkFileSink measures the file sink layer: one op drains the same
// 65 536 events from memory into a temp-file jsonl sink under a counting
// layer, queueing a checkpoint every 4096 events from inside Next as a
// journaled daemon run does; the lines are rendered on the encoders, the
// flush happens on the writer and the fsync on the syncer, and Consume
// returns once the last is committed.
// Against BenchmarkScenarioLineWriter it shows what the sink's goroutines
// and its checkpoints add or hide.
func BenchmarkFileSink(b *testing.B) {
	st, evs := benchEvents(1 << 16)
	out := filepath.Join(b.TempDir(), "f.jsonl")
	var skipped atomic.Int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink, err := NewSink(SinkConfig{Name: "jsonl", Out: out, Below: countBelow})
		if err != nil {
			b.Fatal(err)
		}
		src := &ckptSource{EventSource: &memSource{Stream: st, evs: evs}, sink: sink.(Checkpointer), every: 4096,
			check: func(_ int, _ Cursor, ok bool) {
				if !ok {
					skipped.Add(1)
				}
			}}
		if _, err := sink.Consume(context.Background(), src); err != nil {
			b.Fatal(err)
		}
	}
	if n := skipped.Load(); n > 0 {
		b.Fatalf("%d checkpoints could not be vouched for", n)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}
