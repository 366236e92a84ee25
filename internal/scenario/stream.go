package scenario

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
	"cptgpt/internal/tracez"
)

// Event is one element of a scenario's merged, time-ordered event sequence:
// a timestamp, a compact UE key, the UE's device type and the event type.
// Seq is the event's index within its UE stream; (Time, UE, Seq) is the
// total order the merge emits, which is what makes scenario output
// bit-identical at every parallelism and chunking.
type Event struct {
	Time   float64
	UE     uint64
	Seq    uint32
	Device events.DeviceType
	Type   events.Type
}

// ueKeyBits is how many low bits of a UE key hold the per-source stream
// index; the source index lives above them.
const ueKeyBits = 40

// ueKey packs (source index, stream index) into one 64-bit UE key.
func ueKey(src int, idx int) uint64 {
	return uint64(src)<<ueKeyBits | uint64(idx)
}

// less orders events by the merge's total order (Time, UE, Seq).
func (e Event) less(o Event) bool {
	if e.Time != o.Time {
		return e.Time < o.Time
	}
	if e.UE != o.UE {
		return e.UE < o.UE
	}
	return e.Seq < o.Seq
}

// RunOpts tunes scenario execution. The zero value is usable.
type RunOpts struct {
	// UEs overrides the spec's population (0 keeps Spec.Population; if
	// that is also 0, DefaultPopulation applies).
	UEs int
	// Parallelism is the run's core budget: it bounds the worker count
	// generating and spilling chunks, and when there are fewer chunks than
	// that, a model source's decode steps fan out over the cores left per
	// worker; a merge of many runs is split over at most as many
	// goroutines. 0 means the tensor-layer default. Output is identical at
	// every setting.
	Parallelism int
	// BatchSize is the number of UE streams generated, transformed and
	// spilled per chunk — the unit the pipeline's peak memory scales with;
	// 0 means DefaultChunkStreams. CPT-GPT sources decode each chunk
	// through a continuously refilled BatchDecoder of
	// min(BatchSize, cptgpt.DefaultBatchSize) slots.
	// Output is identical at every setting.
	BatchSize int
	// TempDir hosts the spill run files ("" = the system temp dir). Every
	// run file is deleted by Stream.Close.
	TempDir string
	// MaxFanIn bounds the k-way merge width (and thus open files and
	// buffer memory); runs beyond it are merged hierarchically. 0 means
	// DefaultMaxFanIn.
	MaxFanIn int
	// Speculative overrides every cptgpt source's speculative-decoding
	// setting for this run: "on" forces it, "off" disables it, "" keeps
	// each source's spec setting. Speculative output is deterministic per
	// seed and distributionally exact, but differs stream-by-stream from
	// plain decoding (different RNG consumption).
	Speculative string
	// DraftTokens overrides the speculation depth run-wide (0 keeps each
	// source's spec setting, or the engine default).
	DraftTokens int
	// Sources binds custom generators to spec source IDs (required for
	// kind "custom", optional override for any other kind).
	Sources map[string]ChunkFunc
	// LoadModel loads the trained model backing a "cptgpt" source; nil
	// means cptgpt.LoadFile. A long-running daemon passes a caching loader
	// here so models are read from disk once and shared across runs.
	LoadModel func(path string) (*cptgpt.Model, error)
	// SourceStats, when non-nil, supplies the decode-telemetry sink for
	// each cptgpt source (keyed by source ID; return nil to skip one).
	// Counters accumulate atomically as generation chunks finish, so a
	// daemon can watch per-source decode stats (slot utilization, draft
	// acceptance) while the generation phase is still running.
	SourceStats func(sourceID string) *cptgpt.DecodeStats
	// SourceStepHist, when non-nil, supplies a lock-free decode-step
	// duration histogram for each cptgpt source (keyed by source ID;
	// return nil to skip one). Every BatchDecoder.Step/StepK the source
	// performs observes its wall duration there — the distribution behind
	// a daemon's cptserved_decode_step_seconds series.
	SourceStepHist func(sourceID string) *telemetry.Histogram
	// Budget bounds the run's resource consumption (zero = unlimited):
	// spill-disk bytes are enforced at every spill and merge write, the
	// event count by the Pacer. An over-budget run fails with a typed
	// *BudgetExceededError. A wall-clock bound is not a Budget field but a
	// context deadline its owner arms and types (see WrapWallClock).
	Budget Budget
	// ResumeAfter fast-forwards the run past a checkpointed merge key:
	// every event ≤ (Time, UE, Seq) is regenerated (the pipeline is
	// deterministic, so regeneration is bit-identical) but pruned at the
	// spill stage, and the returned Stream emits exactly the suffix the
	// original run would have emitted after that key. Stream.Skipped
	// reports how many events were pruned. Nil runs from the beginning.
	ResumeAfter *Event
}

// DefaultPopulation is the UE count used when neither the spec nor the run
// options give one.
const DefaultPopulation = 1000

// DefaultChunkStreams is the default RunOpts.BatchSize.
const DefaultChunkStreams = 1024

// DefaultMaxFanIn is the default merge fan-in bound.
const DefaultMaxFanIn = 64

func (o RunOpts) chunkStreams() int {
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	return DefaultChunkStreams
}

// decodeBatch bounds the CPT-GPT decode batch (the BatchDecoder's slot
// count): the chunk size, capped at the decoder default so a large spill
// chunk does not inflate the shared KV cache.
func (o RunOpts) decodeBatch() int {
	return min(o.chunkStreams(), cptgpt.DefaultBatchSize)
}

// DecodeBatch reports the decode-slot capacity cptgpt sources run with
// under these options — the denominator for turning DecodeStats.SlotSteps
// into a slot-utilization figure.
func (o RunOpts) DecodeBatch() int { return o.decodeBatch() }

func (o RunOpts) fanIn() int {
	if o.MaxFanIn > 1 {
		return o.MaxFanIn
	}
	return DefaultMaxFanIn
}

func (o RunOpts) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return tensor.Parallelism()
}

// Stream is a scenario's merged event iterator: a bounded-memory, globally
// time-ordered sequence of control-plane events pulled incrementally by a
// sink. Close releases the spill directory.
type Stream struct {
	gen     events.Generation
	srcIDs  []string
	total   int // UEs across sources
	m       *merger
	dir     string
	acct    *spillAccount // spill-byte accounting released on Close (nil = untracked)
	closed  bool
	skipped int64 // events pruned by RunOpts.ResumeAfter

	// The stream's lifetime is the final lazy k-way merge; its span covers
	// first pull to exhaustion (or Close, for partially consumed streams).
	mergeSp tracez.Active
	mergeK  int
	merged  int64
}

// endMergeSpan records the stream's merge span once; safe to call from
// both the exhaustion path and Close.
func (st *Stream) endMergeSpan() {
	if st.mergeSp.Live() {
		st.mergeSp.End(st.merged, fmt.Sprintf("k=%d", st.mergeK))
		st.mergeSp = tracez.Active{}
	}
}

// Generation returns the scenario's technology generation.
func (st *Stream) Generation() events.Generation { return st.gen }

// UEs returns the total UE population backing the stream.
func (st *Stream) UEs() int { return st.total }

// Skipped reports how many regenerated events RunOpts.ResumeAfter pruned
// before the stream's first emitted event (0 for a from-scratch run).
func (st *Stream) Skipped() int64 { return st.skipped }

// UEID renders an event's UE key as a readable identifier,
// "<source-id>-<stream-index>" with the index zero-padded to seven digits
// ("ue-<key>" for a key no source of this stream owns).
func (st *Stream) UEID(e Event) string { return string(st.AppendUEID(nil, e)) }

// AppendUEID appends UEID(e) to dst — the per-event form the line sinks
// use (see UEIDAppender).
func (st *Stream) AppendUEID(dst []byte, e Event) []byte {
	src := int(e.UE >> ueKeyBits)
	if src >= len(st.srcIDs) {
		return strconv.AppendUint(append(dst, "ue-"...), e.UE, 10)
	}
	idx := e.UE & (1<<ueKeyBits - 1)
	dst = append(append(dst, st.srcIDs[src]...), '-')
	if idx >= 1e7 {
		return strconv.AppendUint(dst, idx, 10)
	}
	const pairs = trace.DigitPairs
	hi, lo := idx/1e4, idx%1e4 // seven digits, zero-padded: three, then four
	return append(dst, '0'+byte(hi/100), pairs[hi%100*2], pairs[hi%100*2+1],
		pairs[lo/100*2], pairs[lo/100*2+1], pairs[lo%100*2], pairs[lo%100*2+1])
}

// Next returns the next event in global time order; ok=false ends the
// stream (check Err, then Close).
func (st *Stream) Next() (e Event, ok bool) {
	if e, ok = st.m.next(); !ok {
		st.endMergeSpan()
		return Event{}, false
	}
	st.merged++
	return e, true
}

// Err reports the first error the pipeline hit (nil on clean exhaustion).
func (st *Stream) Err() error { return st.m.err }

// Close stops and joins the merge's goroutines, releases every open run and
// deletes the spill directory. It is safe to call after partial
// consumption and more than once.
func (st *Stream) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	st.endMergeSpan()
	st.m.close()
	st.acct.release()
	if st.dir != "" {
		if err := os.RemoveAll(st.dir); err != nil {
			return fmt.Errorf("scenario: removing spill dir: %w", err)
		}
	}
	return nil
}

// chunkJob is one unit of the generation phase: streams [lo, hi) of one
// source, spilled to run file out.
type chunkJob struct {
	src    int
	lo, hi int
	out    string
}

// Open executes the scenario's generation phase and returns its merged
// event stream. The pipeline:
//
//  1. every source's UE index space is cut into chunks of
//     RunOpts.BatchSize streams;
//  2. RunOpts.Parallelism workers generate chunks (model sources decode
//     batched through a BatchDecoder), rewrite each stream through the
//     source's operator chain, assign the per-UE event sequence numbers,
//     sort the chunk and spill it as a sorted binary run;
//  3. runs are merged hierarchically down to RunOpts.MaxFanIn — the first
//     reduction pass while phase 2 still generates, once its runs are
//     spilled — and the returned Stream k-way-merges the survivors lazily.
//     A merge of many runs is cut into at most Parallelism groups, each
//     merged on its own goroutine.
//
// Peak memory is O(Parallelism × BatchSize × stream length) for phase 2
// plus O(MaxFanIn + Parallelism) block buffers for phase 3 — independent
// of the UE count. The emitted sequence is bit-identical at every
// Parallelism × BatchSize because chunk boundaries only move events between
// runs, never change the (Time, UE, Seq) total order the merge restores.
//
// Open is OpenContext under context.Background().
func (spec *Spec) Open(opts RunOpts) (st *Stream, err error) {
	return spec.OpenContext(context.Background(), opts)
}

// OpenContext is Open under a cancellable context: cancelling ctx aborts
// the generation phase between chunk jobs and merge passes (spill files are
// cleaned up) and OpenContext returns ctx's error — the seam a daemon uses
// to stop a run that is still generating. Cancellation after OpenContext
// returns does not affect the Stream; wrap it in a Pacer for cancellable
// consumption.
func (spec *Spec) OpenContext(ctx context.Context, opts RunOpts) (st *Stream, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	gen, err := spec.gen()
	if err != nil {
		return nil, err
	}
	total := opts.UEs
	if total <= 0 {
		total = spec.Population
	}
	if total <= 0 {
		total = DefaultPopulation
	}
	sources, err := resolveSources(spec, gen, opts, total)
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp(opts.TempDir, "cptscenario-")
	if err != nil {
		return nil, fmt.Errorf("scenario: creating spill dir: %w", err)
	}
	acct := newSpillAccount(opts.Budget)
	defer func() {
		if err != nil {
			os.RemoveAll(dir)
			acct.release()
		}
	}()

	// Phase 1: cut sources into chunk jobs.
	chunk := opts.chunkStreams()
	var jobs []chunkJob
	for si := range sources {
		for lo := 0; lo < sources[si].n; lo += chunk {
			hi := lo + chunk
			if hi > sources[si].n {
				hi = sources[si].n
			}
			jobs = append(jobs, chunkJob{
				src: si, lo: lo, hi: hi,
				out: filepath.Join(dir, fmt.Sprintf("run-%04d-%07d.bin", si, lo)),
			})
		}
	}

	// Phase 2: generate, transform, sort, spill — fanned over workers.
	runs, skipped, err := spillChunks(ctx, spec, sources, jobs, opts, dir, acct)
	if err != nil {
		return nil, err
	}

	// Phase 3: bound the merge fan-in.
	if runs, err = reduceRuns(ctx, runs, opts.fanIn(), opts.workers(), dir, acct); err != nil {
		return nil, err
	}

	m, err := openMerger(runs, opts.workers())
	if err != nil {
		return nil, err
	}
	st = &Stream{gen: gen, m: m, dir: dir, acct: acct, total: total, skipped: skipped}
	for i := range sources {
		st.srcIDs = append(st.srcIDs, sources[i].id)
	}
	st.mergeSp = tracez.Begin(tracez.StageScenarioMerge, "")
	st.mergeK = len(runs)
	return st, nil
}

// spillChunks runs the generation phase and returns the produced runs
// in deterministic job order (empty chunks are skipped) plus the number of
// events pruned by RunOpts.ResumeAfter. When there are more jobs than the
// fan-in, the worker that spills the last of the first reduction pass's
// chunks (prefixLen) merges them into one run, listed last, while the
// other workers generate on. A context cancellation stops dispatching jobs
// and surfaces as ctx's error.
func spillChunks(ctx context.Context, spec *Spec, sources []boundSource, jobs []chunkJob, opts RunOpts, dir string, acct *spillAccount) ([]run, int64, error) {
	horizon := spec.HorizonSec
	workers := opts.workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	spilled := make([]run, len(jobs))
	errs := make([]error, workers)
	var skipped atomic.Int64
	k := prefixLen(len(jobs), opts.fanIn())
	var prefixLeft atomic.Int64
	prefixLeft.Store(int64(k))
	var prefix run
	jobCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mem := workerMemory.Get().(*chunkMemory)
			defer workerMemory.Put(mem)
			// One job, isolated: a panicking source or operator must not
			// take down the process (a daemon runs many scenarios) — it
			// fails this run, and the worker keeps draining the job channel
			// so the dispatcher never blocks on dead workers.
			runJob := func(ji int) {
				defer func() {
					if p := recover(); p != nil {
						errs[w] = fmt.Errorf("scenario: panic in generation worker: %v\n%s", p, debug.Stack())
					}
				}()
				job := jobs[ji]
				src := &sources[job.src]
				srcSp := tracez.Begin(tracez.StageScenarioSource, "")
				streams, err := src.chunk(job.lo, job.hi)
				srcSp.End(int64(len(streams)), src.id)
				if err != nil {
					errs[w] = fmt.Errorf("scenario: source %q chunk [%d,%d): %w", src.id, job.lo, job.hi, err)
					return
				}
				if len(streams) != job.hi-job.lo {
					// A mis-sized chunk would silently corrupt UE keys
					// (stream i's key is job.lo+i).
					errs[w] = fmt.Errorf("scenario: source %q chunk [%d,%d) returned %d streams, want %d",
						src.id, job.lo, job.hi, len(streams), job.hi-job.lo)
					return
				}
				opsSp := tracez.Begin(tracez.StageScenarioOps, "")
				n := 0
				for i := range streams {
					n += len(streams[i].Events)
				}
				// Operators may add events; the pre-operator count
				// is the usual size, and no allocation once the
				// worker's memory has held a chunk this large.
				evs := slices.Grow(mem.evs[:0], n)
				for i := range streams {
					s := &streams[i]
					ue := ueKey(job.src, job.lo+i)
					applyOps(src.ops, s, ue, horizon, &mem.ops)
					for seq, e := range s.Events {
						evs = append(evs, Event{
							Time: e.Time, UE: ue, Seq: uint32(seq),
							Device: s.Device, Type: e.Type,
						})
					}
				}
				mem.evs = evs
				opsSp.End(int64(len(evs)), src.id)
				if len(evs) == 0 {
					return
				}
				spillSp := tracez.Begin(tracez.StageScenarioSpill, "")
				order := mem.sorter.order(evs)
				if resume := opts.ResumeAfter; resume != nil {
					// Fast-forward: prune the regenerated prefix ≤ the
					// checkpointed key. The chunk is sorted in the merge's
					// total order, so the prefix is a binary search away.
					cut := sort.Search(len(order), func(i int) bool { return resume.less(evs[order[i].idx]) })
					if cut > 0 {
						skipped.Add(int64(cut))
						order = order[cut:]
					}
					if len(order) == 0 {
						spillSp.End(0, src.id)
						return
					}
				}
				if spilled[ji], err = writeRun(job.out, evs, order, acct, mem.block); err != nil {
					errs[w] = err
					return
				}
				spillSp.End(int64(len(order)), src.id)
			}
			for ji := range jobCh {
				if errs[w] != nil || ctx.Err() != nil {
					continue // drain after failure or cancellation
				}
				runJob(ji)
				if ji < k && errs[w] == nil && prefixLeft.Add(-1) == 0 {
					prefix, errs[w] = mergePrefix(ctx, spilled[:k], dir, acct)
				}
			}
		}(w)
	}
	for ji := range jobs {
		if ctx.Err() != nil {
			break
		}
		jobCh <- ji
	}
	close(jobCh)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	if prefix.bytes > 0 {
		spilled = spilled[k:]
	}
	var runs []run
	for _, r := range spilled {
		if r.bytes > 0 {
			runs = append(runs, r)
		}
	}
	if prefix.bytes > 0 {
		runs = append(runs, prefix)
	}
	return runs, skipped.Load(), nil
}

// chunkMemory is one chunk worker's scratch: the chunk's events, the
// operators' stream buffers, the sort keys and the run writer's block. A
// worker takes one from workerMemory when it starts and puts it back when
// it exits, so a process's later runs generate into memory its earlier
// runs grew instead of growing it again; what an idle process keeps there
// goes at its next GC cycle or two. A worker still holds one chunk's worth
// at a time, so memory stays O(Parallelism × BatchSize × stream length).
type chunkMemory struct {
	evs    []Event
	ops    opScratch
	sorter chunkSorter
	block  []byte
}

var workerMemory = sync.Pool{New: func() any { return &chunkMemory{block: make([]byte, blockSize)} }}

// mergePrefix merges the non-empty runs of the first reduction pass's
// chunks into one run, on the calling worker alone: the other workers are
// still generating. Fewer than two runs are left as they are (an empty
// run back).
func mergePrefix(ctx context.Context, spilled []run, dir string, acct *spillAccount) (run, error) {
	var in []run
	for _, r := range spilled {
		if r.bytes > 0 {
			in = append(in, r)
		}
	}
	if len(in) < 2 {
		return run{}, nil
	}
	return mergePass(ctx, in, filepath.Join(dir, "merge-prefix.bin"), 1, acct)
}
