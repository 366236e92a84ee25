package scenario

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/trace"
)

// TestRunFileBlockBoundaries round-trips runs whose lengths sit on and around
// the block size: every record comes back exactly, the carried size is the
// file's size, and the end of the run is a clean ok=false.
func TestRunFileBlockBoundaries(t *testing.T) {
	const block = blockSize / recordSize
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	var sorter chunkSorter
	for _, n := range []int{0, 1, block - 1, block, block + 1, 3*block + 7} {
		evs := randomChunk(rng, n, 40, func() float64 { return rng.Float64() * 100 })
		order := sorter.order(evs)
		want := sortedByOrder(evs, order)
		r, err := writeRun(filepath.Join(dir, fmt.Sprintf("run-%d.bin", n)), evs, order, nil)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(r.path)
		if err != nil {
			t.Fatal(err)
		}
		if r.bytes != int64(n)*recordSize || fi.Size() != r.bytes {
			t.Fatalf("n=%d: run carries %d bytes, file has %d, want %d", n, r.bytes, fi.Size(), n*recordSize)
		}
		rd, err := openRun(r)
		if err != nil {
			t.Fatal(err)
		}
		var got []Event
		for {
			ok, err := rd.next()
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if !ok {
				break
			}
			got = append(got, rd.cur)
		}
		rd.close()
		if !sameEvents(got, want) {
			t.Fatalf("n=%d: read back %d records that differ from the %d written", n, len(got), len(want))
		}
	}
}

// spillDirOf returns the one spill directory a run has made under tmp.
func spillDirOf(t testing.TB, tmp string) string {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(tmp, "cptscenario-*"))
	if err != nil || len(dirs) != 1 {
		t.Fatalf("spill dirs under %s: %v (err %v), want exactly one", tmp, dirs, err)
	}
	return dirs[0]
}

// TestTruncatedRunFailsStream cuts a run file short behind an open stream —
// mid-record, and on a record boundary — and requires the stream to end with
// an io.ErrUnexpectedEOF from Err, never as a clean, shorter stream.
func TestTruncatedRunFailsStream(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	whole := len(drainAll(t, spec, RunOpts{UEs: 2000}))
	for _, cut := range []int64{recordSize / 2, 3 * recordSize} {
		tmp := t.TempDir()
		// A chunk per source, so each run file is several blocks long and the
		// open stream has read only its first.
		st, err := spec.Open(RunOpts{UEs: 2000, BatchSize: 2000, TempDir: tmp})
		if err != nil {
			t.Fatal(err)
		}
		runs, _ := filepath.Glob(filepath.Join(spillDirOf(t, tmp), "run-*.bin"))
		if len(runs) == 0 {
			t.Fatal("no run files under the open stream")
		}
		fi, err := os.Stat(runs[0])
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() < 2*blockSize {
			t.Fatalf("run file holds %d bytes; the test needs a multi-block run", fi.Size())
		}
		if err := os.Truncate(runs[0], fi.Size()-cut); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			if _, ok := st.Next(); !ok {
				break
			}
			n++
		}
		if err := st.Err(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut %d bytes: stream ended after %d of %d events with Err() = %v, want io.ErrUnexpectedEOF", cut, n, whole, err)
		}
		if n >= whole {
			t.Fatalf("cut %d bytes: stream still delivered %d of %d events", cut, n, whole)
		}
		st.Close()
	}
}

// faultSpec is a four-chunk custom scenario (10 UEs a chunk, 20 events a UE)
// whose source runs hook before generating each chunk — the test's window
// into the spill directory while the generation phase is running.
func faultSpec(hook func(lo int)) (*Spec, RunOpts) {
	spec := &Spec{
		Name: "fault", Generation: "4G", Seed: 1, HorizonSec: 100, Population: 40,
		Sources: []SourceSpec{{ID: "src", Kind: "custom", Share: 1}},
	}
	opts := RunOpts{
		BatchSize: 10, Parallelism: 1, MaxFanIn: 2,
		Sources: map[string]ChunkFunc{"src": func(lo, hi int) ([]trace.Stream, error) {
			hook(lo)
			out := make([]trace.Stream, hi-lo)
			for i := range out {
				for j := 0; j < 20; j++ {
					out[i].Events = append(out[i].Events, trace.Event{Time: float64(j*40+lo+i) / 10, Type: events.Type(j % 3)})
				}
			}
			return out, nil
		}},
	}
	return spec, opts
}

// TestSpillFaultsSurface injects faults into the spill files from inside a
// run — a full disk under a chunk's run file, a full disk under the
// reduction pass's merge output, an input that vanished before its pass —
// and requires each to fail Open with the underlying error and to leave the
// shared spill ledger at zero.
func TestSpillFaultsSurface(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to stand in for a full disk")
	}
	cases := []struct {
		name string
		// sabotage runs in the spill directory before the last chunk is
		// generated; the three earlier chunks are on disk by then.
		sabotage func(dir string) error
		want     error
	}{
		{"chunk-write", func(dir string) error {
			return os.Symlink("/dev/full", filepath.Join(dir, "run-0000-0000030.bin"))
		}, syscall.ENOSPC},
		{"merge-write", func(dir string) error {
			return os.Symlink("/dev/full", filepath.Join(dir, "merge-000000.bin"))
		}, syscall.ENOSPC},
		{"missing-input", func(dir string) error {
			return os.Remove(filepath.Join(dir, "run-0000-0000000.bin"))
		}, fs.ErrNotExist},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			spec, opts := faultSpec(func(lo int) {
				if lo == 30 {
					if err := tc.sabotage(spillDirOf(t, tmp)); err != nil {
						t.Error(err)
					}
				}
			})
			var ledger atomic.Int64
			opts.TempDir = tmp
			opts.Budget.SpillUsed = &ledger
			st, err := spec.Open(opts)
			if err == nil {
				st.Close()
				t.Fatal("Open succeeded over a sabotaged spill directory")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Open failed with %v, want an error wrapping %v", err, tc.want)
			}
			if got := ledger.Load(); got != 0 {
				t.Fatalf("spill ledger holds %d bytes after the failed run, want 0", got)
			}
			if left, _ := filepath.Glob(filepath.Join(tmp, "cptscenario-*")); len(left) != 0 {
				t.Fatalf("failed run left its spill directory behind: %v", left)
			}
		})
	}
}

// TestMergeOrderProperty draws random runs — built-in × seed × UEs ×
// BatchSize × MaxFanIn × Parallelism — and requires each to be strictly
// increasing in (Time, UE, Seq) and event-for-event equal to the one-chunk,
// one-worker run of the same spec (one radix sort per source, no reduction
// pass).
func TestMergeOrderProperty(t *testing.T) {
	draws := 24
	if testing.Short() {
		draws = 6
	}
	rng := rand.New(rand.NewSource(20260928))
	names := Builtins()
	for i := 0; i < draws; i++ {
		spec, err := Builtin(names[rng.Intn(len(names))])
		if err != nil {
			t.Fatal(err)
		}
		spec.Seed = rng.Uint64()
		ues := 20 + rng.Intn(400)
		opts := RunOpts{
			UEs:         ues,
			BatchSize:   1 + rng.Intn(ues),
			MaxFanIn:    2 + rng.Intn(DefaultMaxFanIn-1),
			Parallelism: 1 + rng.Intn(4),
		}
		if rng.Intn(3) == 0 {
			opts.BatchSize = 1 + rng.Intn(8) // many runs: several reduction passes
		}
		want := drainAll(t, spec, RunOpts{UEs: ues, BatchSize: ues, Parallelism: 1})
		got := drainAll(t, spec, opts)
		if len(want) == 0 {
			t.Fatalf("%s seed %d at %d UEs emitted nothing", spec.Name, spec.Seed, ues)
		}
		for j := 1; j < len(got); j++ {
			if !got[j-1].less(got[j]) {
				t.Fatalf("%s seed %d %+v: event %d %+v does not follow %+v", spec.Name, spec.Seed, opts, j, got[j], got[j-1])
			}
		}
		if !sameEvents(got, want) {
			t.Fatalf("%s seed %d %+v: %d events differ from the one-chunk run's %d", spec.Name, spec.Seed, opts, len(got), len(want))
		}
	}
}
