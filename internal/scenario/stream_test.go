package scenario

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/trace"
)

// liveHeap forces a collection and returns the live heap size.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// peakScenarioHeap runs a flash-crowd scenario at the given population and
// returns the peak live heap observed (after Open and sampled during the
// drain), relative to the pre-run baseline.
func peakScenarioHeap(t *testing.T, ues int) uint64 {
	t.Helper()
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	st, err := spec.Open(RunOpts{UEs: ues, Parallelism: 2, BatchSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	peak := liveHeap()
	n := 0
	for {
		_, ok := st.Next()
		if !ok {
			break
		}
		n++
		if n%8192 == 0 {
			if h := liveHeap(); h > peak {
				peak = h
			}
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if h := liveHeap(); h > peak {
		peak = h
	}
	if n == 0 {
		t.Fatal("scenario emitted no events")
	}
	if peak <= base {
		return 0
	}
	return peak - base
}

// TestBoundedMemoryStreaming is the alloc guard for the streaming pipeline:
// quadrupling the UE population must not meaningfully move the peak live
// heap, because every phase holds O(BatchSize) streams plus O(MaxFanIn)
// merge buffers — events live on disk, not in memory.
func TestBoundedMemoryStreaming(t *testing.T) {
	if testing.Short() {
		t.Skip("memory profile run skipped in -short")
	}
	small := peakScenarioHeap(t, 500)
	large := peakScenarioHeap(t, 2000)
	// Identical asymptotics with generous constant slack: the large run
	// may cost at most 2x the small one plus 4 MiB, against a ~4x event
	// volume. A pipeline that materialized the dataset would blow through
	// this immediately (±16 bytes/event × ~4x events).
	if large > 2*small+4<<20 {
		t.Fatalf("peak heap scales with UE count: %d UEs → %d bytes, %d UEs → %d bytes",
			500, small, 2000, large)
	}
}

// Merging zero-length sources must yield a clean empty stream.
func TestEmptyScenarioStream(t *testing.T) {
	spec := &Spec{
		Name: "empty", Generation: "4G", Seed: 1, HorizonSec: 10, Population: 4,
		Sources: []SourceSpec{{ID: "none", Kind: "custom", Share: 1}},
	}
	st, err := spec.Open(RunOpts{Sources: map[string]ChunkFunc{
		"none": func(lo, hi int) ([]trace.Stream, error) { return make([]trace.Stream, hi-lo), nil },
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, ok := st.Next(); ok {
		t.Fatal("empty scenario emitted an event")
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamCloseStopsMerge closes streams after 0 events, 1 event and half
// the stream, and requires Close to return promptly, to leave no goroutine
// behind and to remove the spill directory. At Parallelism 2 the final merge
// of these ~20 runs is split over sub-merges whose feeds are full when Close
// comes; at Parallelism 1 it is one heap, with no goroutine at all.
func TestStreamCloseStopsMerge(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	const ues, batch = 2000, 100
	whole := len(drainAll(t, spec, RunOpts{UEs: ues, BatchSize: batch}))
	for _, par := range []int{1, 2} {
		for _, n := range []int{0, 1, whole / 2} {
			tmp := t.TempDir()
			base := runtime.NumGoroutine()
			st, err := spec.Open(RunOpts{UEs: ues, BatchSize: batch, Parallelism: par, TempDir: tmp})
			if err != nil {
				t.Fatal(err)
			}
			dir := spillDirOf(t, tmp)
			if isSplit(st) != (par > 1) {
				t.Fatalf("Parallelism %d: split final merge %v", par, isSplit(st))
			}
			for i := 0; i < n; i++ {
				if _, ok := st.Next(); !ok {
					t.Fatalf("stream ended after %d of %d events: %v", i, whole, st.Err())
				}
			}
			closed := make(chan error, 1)
			go func() { closed <- st.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("Parallelism %d: Close after %d events did not return", par, n)
			}
			waitGoroutines(t, base)
			if _, err := os.Stat(dir); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("Parallelism %d: spill directory after Close: %v", par, err)
			}
		}
	}
}

// waitGoroutines waits for the goroutine count to fall back to base: a
// goroutine whose exit another has waited on may still be unwinding.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelDuringPrefixMerge cancels OpenContext once the prefix merge has
// started beside generation (its output file exists) and requires the
// context's error, a spill ledger at zero and no spill directory left.
func TestCancelDuringPrefixMerge(t *testing.T) {
	const chunk, perUE = 50, 400
	tmp := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	spec := &Spec{
		Name: "cancel", Generation: "4G", Seed: 1, HorizonSec: 1000, Population: 8 * chunk,
		Sources: []SourceSpec{{ID: "src", Kind: "custom", Share: 1}},
	}
	var ledger atomic.Int64
	// Eight chunks at fan-in 4: the first four are the reduction prefix,
	// merged while chunks 4–7 generate.
	opts := RunOpts{
		BatchSize: chunk, Parallelism: 2, MaxFanIn: 4, TempDir: tmp,
		Budget: Budget{SpillUsed: &ledger},
		Sources: map[string]ChunkFunc{"src": func(lo, hi int) ([]trace.Stream, error) {
			if lo == 4*chunk {
				prefix := filepath.Join(spillDirOf(t, tmp), "merge-prefix.bin")
				deadline := time.Now().Add(time.Minute)
				for _, err := os.Stat(prefix); err != nil; _, err = os.Stat(prefix) {
					if time.Now().After(deadline) {
						t.Error("the prefix merge never started")
						break
					}
					time.Sleep(50 * time.Microsecond)
				}
				cancel()
			}
			out := make([]trace.Stream, hi-lo)
			for i := range out {
				for j := 0; j < perUE; j++ {
					out[i].Events = append(out[i].Events, trace.Event{Time: float64(j*chunk+i) * 1000 / (perUE * chunk), Type: events.Type(j % 3)})
				}
			}
			return out, nil
		}},
	}
	st, err := spec.OpenContext(ctx, opts)
	if err == nil {
		st.Close()
		t.Fatal("OpenContext succeeded after its context was cancelled")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("OpenContext failed with %v, want context.Canceled", err)
	}
	if got := ledger.Load(); got != 0 {
		t.Fatalf("spill ledger holds %d bytes after the cancelled run, want 0", got)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "cptscenario-*")); len(left) != 0 {
		t.Fatalf("cancelled run left its spill directory behind: %v", left)
	}
}

// TestOpenReusesWorkerMemory: a process's second and later Opens generate
// into chunk-worker memory an earlier Open grew (the event buffer, the
// operator scratch, the sort keys and the run block buffer), so the
// generation phase allocates well under half of what a cold one does. A
// flash crowd at 5,000 UEs allocates about 119 bytes per event when every
// Open starts with empty workers.
func TestOpenReusesWorkerMemory(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{UEs: 5000, TempDir: t.TempDir()}
	warm, err := spec.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Drain(warm)
	warm.Close()
	if err != nil {
		t.Fatal(err)
	}
	const opens = 5
	var alloc uint64
	var ms runtime.MemStats
	for range opens {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		st, err := spec.Open(opts)
		runtime.ReadMemStats(&ms)
		alloc += ms.TotalAlloc - before
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
	}
	perEvent := float64(alloc) / opens / float64(sum.Events)
	t.Logf("%.1f bytes allocated per event over %d warm Opens (%d events each)", perEvent, opens, sum.Events)
	if perEvent > 60 {
		t.Fatalf("a warm Open allocates %.1f bytes per event, want at most 60", perEvent)
	}
}
