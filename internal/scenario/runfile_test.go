package scenario

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/trace"
)

// TestRunFileBlockBoundaries round-trips runs whose lengths sit on and around
// the block size: every record comes back exactly, the carried size is the
// file's size, and the end of the run is a clean empty block.
func TestRunFileBlockBoundaries(t *testing.T) {
	const block = blockSize / recordSize
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(3))
	var sorter chunkSorter
	for _, n := range []int{0, 1, block - 1, block, block + 1, 3*block + 7} {
		evs := randomChunk(rng, n, 40, func() float64 { return rng.Float64() * 100 })
		order := sorter.order(evs)
		want := sortedByOrder(evs, order)
		r, err := writeRun(filepath.Join(dir, fmt.Sprintf("run-%d.bin", n)), evs, order, nil, nil)
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
			blk, err := rd.nextBlock()
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			if len(blk) == 0 {
				break
			}
			for ; len(blk) > 0; blk = blk[recordSize:] {
				got = append(got, decodeRecord(blk))
			}
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
	// A chunk per source, so each run file is several blocks long and the
	// open stream has read only its first.
	truncateUnderStream(t, RunOpts{UEs: 2000, BatchSize: 2000}, false)
}

// TestTruncatedRunFailsSplitMerge is TestTruncatedRunFailsStream with the
// truncated run read by a sub-merge: the error must cross the feed to Err,
// and draining and closing the stream must not hang.
func TestTruncatedRunFailsSplitMerge(t *testing.T) {
	truncateUnderStream(t, RunOpts{UEs: 2000, BatchSize: 250, Parallelism: 2}, true)
}

// truncateUnderStream opens flash-crowd under opts, cuts the first run file
// short and drains the stream; split says whether opts must give a split
// final merge.
func truncateUnderStream(t *testing.T, opts RunOpts, split bool) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	whole := len(drainAll(t, spec, RunOpts{UEs: opts.UEs}))
	for _, cut := range []int64{recordSize / 2, 3 * recordSize} {
		tmp := t.TempDir()
		opts.TempDir = tmp
		st, err := spec.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if isSplit(st) != split {
			t.Fatalf("%+v: split final merge %v, want %v", opts, isSplit(st), split)
		}
		runs, _ := filepath.Glob(filepath.Join(spillDirOf(t, tmp), "run-*.bin"))
		if len(runs) == 0 {
			t.Fatal("no run files under the open stream")
		}
		fi, err := os.Stat(runs[0])
		if err != nil {
			t.Fatal(err)
		}
		// The run's last block is read only when the merge nears the
		// stream's end, well past what a sub-merge reads ahead of a
		// consumer that has taken nothing yet.
		if fi.Size() < 3*blockSize {
			t.Fatalf("run file holds %d bytes; the test needs a run of several blocks", fi.Size())
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

// isSplit reports whether a stream's final merge runs on sub-merges.
func isSplit(st *Stream) bool {
	for _, e := range st.m.h {
		if _, ok := e.c.src.(*subMerge); ok {
			return true
		}
	}
	return false
}

// memRun is a sorted run held in memory and fed to a merger through the
// runSource seam, in blocks of a random number of records. With fail > 0,
// its fail-th nextBlock call returns errBrokenRun instead.
type memRun struct {
	recs        []byte
	rng         *rand.Rand
	calls, fail int
	closed      int
}

var errBrokenRun = errors.New("broken run")

func (r *memRun) nextBlock() ([]byte, error) {
	if r.calls++; r.calls == r.fail {
		return nil, errBrokenRun
	}
	n := min(len(r.recs), (1+r.rng.Intn(300))*recordSize)
	blk := r.recs[:n]
	r.recs = r.recs[n:]
	return blk, nil
}

func (r *memRun) close() error {
	r.closed++
	return nil
}

// memRuns encodes runs as memRuns and returns them, the same as
// runSources, and their weights.
func memRuns(runs [][]Event, rng *rand.Rand) ([]*memRun, []runSource, []int64) {
	mems := make([]*memRun, len(runs))
	srcs := make([]runSource, len(runs))
	weights := make([]int64, len(runs))
	for i, evs := range runs {
		recs := make([]byte, len(evs)*recordSize)
		for j, e := range evs {
			encodeRecord(recs[j*recordSize:], e)
		}
		mems[i] = &memRun{recs: recs, rng: rand.New(rand.NewSource(rng.Int63()))}
		srcs[i] = mems[i]
		weights[i] = int64(len(recs))
	}
	return mems, srcs, weights
}

// closedOnce requires every source closed exactly once.
func closedOnce(t *testing.T, mems []*memRun, what string) {
	t.Helper()
	for i, src := range mems {
		if src.closed != 1 {
			t.Fatalf("%s: run %d closed %d times, want once", what, i, src.closed)
		}
	}
}

// mergeMem merges runs from memory through splitMerge at the given degree
// and requires every source closed exactly once.
func mergeMem(t *testing.T, runs [][]Event, degree int, rng *rand.Rand) []Event {
	t.Helper()
	mems, srcs, weights := memRuns(runs, rng)
	// Groups are contiguous and non-empty, cover every run and number
	// min(degree, runs), or there are none below two.
	ends := cutGroups(weights, degree)
	g := min(degree, len(runs))
	bad := g < 2 && ends != nil || g >= 2 && (len(ends) != g || ends[0] < 1 || ends[g-1] != len(runs))
	for i := 1; i < len(ends); i++ {
		bad = bad || ends[i] <= ends[i-1]
	}
	if bad {
		t.Fatalf("cutGroups(%d runs, degree %d) = %v", len(runs), degree, ends)
	}
	m, err := splitMerge(srcs, weights, degree)
	if err != nil {
		t.Fatal(err)
	}
	var out []Event
	for {
		e, ok := m.next()
		if !ok {
			break
		}
		out = append(out, e)
	}
	m.close()
	if m.err != nil {
		t.Fatal(m.err)
	}
	closedOnce(t, mems, fmt.Sprintf("%d runs at degree %d", len(runs), degree))
	return out
}

// TestSplitMergeFailureClosesSources breaks each of nine in-memory runs in
// turn — on its first block, while the merge is built, and on its third,
// mid-stream — at degrees 1 and 3, and requires the run's error back and,
// once the merge is closed, every run closed exactly once.
func TestSplitMergeFailureClosesSources(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	runs := make([][]Event, 9)
	for i := range runs {
		runs[i] = randomChunk(rng, 2000, 30, func() float64 { return rng.Float64() * 100 })
		sort.Slice(runs[i], func(a, b int) bool { return runs[i][a].less(runs[i][b]) })
	}
	for _, degree := range []int{1, 3} {
		for bad := range runs {
			for _, at := range []int{1, 3} {
				mems, srcs, weights := memRuns(runs, rng)
				mems[bad].fail = at
				m, err := splitMerge(srcs, weights, degree)
				if err == nil {
					for {
						if _, ok := m.next(); !ok {
							break
						}
					}
					err = m.err
					m.close()
				}
				what := fmt.Sprintf("degree %d, run %d broken at block %d", degree, bad, at)
				if !errors.Is(err, errBrokenRun) {
					t.Fatalf("%s: merge ended with %v", what, err)
				}
				closedOnce(t, mems, what)
			}
		}
	}
}

// TestSplitMergeMatchesSerial feeds random sorted runs from memory — 1 to
// 130 runs, heavy time ties, empty runs, runs longer than a feed block — and
// requires the merge cut into sub-merges at every degree 1–4 to emit, event
// for event, the serial one-heap merge, which must be the sorted union of
// the runs.
func TestSplitMergeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 64, 65, 100, 130} {
		runs := make([][]Event, k)
		times := 1 + rng.Intn(40) // few distinct times: ties everywhere
		n := rng.Intn(3*blockSize/recordSize) + 40*k
		for i := 0; i < n; i++ {
			r := rng.Intn(k)
			runs[r] = append(runs[r], Event{
				Time: float64(rng.Intn(times)) / 4, UE: uint64(rng.Intn(16)), Seq: uint32(i),
				Device: events.DeviceType(rng.Intn(3)), Type: events.Type(rng.Intn(5)),
			})
		}
		for r := range runs {
			if rng.Intn(6) == 0 {
				runs[r] = nil
			}
		}
		var all []Event
		for _, run := range runs {
			sort.Slice(run, func(a, b int) bool { return run[a].less(run[b]) })
			all = append(all, run...)
		}
		sort.Slice(all, func(a, b int) bool { return all[a].less(all[b]) })
		serial := mergeMem(t, runs, 1, rng)
		if !sameEvents(serial, all) {
			t.Fatalf("%d runs: the serial merge's %d events are not the sorted %d", k, len(serial), len(all))
		}
		for degree := 1; degree <= 4; degree++ {
			if got := mergeMem(t, runs, degree, rng); !sameEvents(got, serial) {
				t.Fatalf("%d runs at degree %d: %d events differ from the serial merge's %d", k, degree, len(got), len(serial))
			}
		}
	}
}

// faultSpec is a four-chunk custom scenario (10 UEs a chunk, 20 events a UE)
// whose source runs hook before generating each chunk — the test's window
// into the spill directory while the generation phase is running. At
// MaxFanIn 2 the first two chunks' runs are the reduction prefix, merged as
// soon as both are spilled; the last two are reduced after generation.
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
// run — a full disk under a chunk's run file, under the prefix merge's
// output and under a later reduction pass's output; an input that vanished
// before the prefix merge (on one worker, and on two with the merge running
// beside generation) or before the final merge — and requires each to fail
// Open with the underlying error and to leave the shared spill ledger at
// zero.
func TestSpillFaultsSurface(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to stand in for a full disk")
	}
	full := func(name string) func(string) error {
		return func(dir string) error { return os.Symlink("/dev/full", filepath.Join(dir, name)) }
	}
	remove := func(name string) func(string) error {
		return func(dir string) error { return os.Remove(filepath.Join(dir, name)) }
	}
	cases := []struct {
		name     string
		par, fan int // Parallelism and MaxFanIn, when not faultSpec's
		// sabotage runs in the spill directory before chunk at is
		// generated; at 10 only chunk 0 is on disk, at 30 chunks 0–2 are
		// and the prefix merge of chunks 0–1 has run.
		at       int
		sabotage func(dir string) error
		want     error
	}{
		{"chunk-write", 0, 0, 30, full("run-0000-0000030.bin"), syscall.ENOSPC},
		{"prefix-merge-write", 0, 0, 10, full("merge-prefix.bin"), syscall.ENOSPC},
		// The reduction pass after generation, over chunks 2 and 3.
		{"merge-write", 0, 0, 30, full("merge-000000.bin"), syscall.ENOSPC},
		// An input of the prefix merge, deleted before that merge runs.
		{"missing-input", 0, 0, 10, remove("run-0000-0000000.bin"), fs.ErrNotExist},
		// Two workers: chunk 1's hook waits until chunk 2 starts, which it
		// can only do on the worker that has spilled chunk 0, then deletes
		// that run; spilling chunk 1 completes the prefix, whose merge then
		// runs beside chunk 2's generation and finds its input gone.
		{"missing-input-concurrent", 2, 0, 10, remove("run-0000-0000000.bin"), fs.ErrNotExist},
		// At fan-in 3 only the prefix is reduced; chunks 2 and 3 go to the
		// final merge as they are.
		{"final-missing-input", 0, 3, 30, remove("run-0000-0000020.bin"), fs.ErrNotExist},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			chunk2 := make(chan struct{})
			spec, opts := faultSpec(func(lo int) {
				if tc.par > 1 && lo == 20 {
					close(chunk2)
				}
				if lo != tc.at {
					return
				}
				if tc.par > 1 {
					select {
					case <-chunk2:
					case <-time.After(time.Minute):
						t.Error("chunk 2 never started")
					}
				}
				if err := tc.sabotage(spillDirOf(t, tmp)); err != nil {
					t.Error(err)
				}
			})
			if tc.par > 0 {
				opts.Parallelism = tc.par
			}
			if tc.fan > 0 {
				opts.MaxFanIn = tc.fan
			}
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
