package served

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/runlog"
	"cptgpt/internal/scenario"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/tracez"
)

// Run states. A run is born generating (the spill phase of the scenario
// pipeline), moves to streaming once its merged event stream is open and
// the pacer starts releasing events, and ends in exactly one of done
// (source exhausted), stopped (operator cancellation drained cleanly) or
// failed (pipeline or sink error). A run resumed from its journal after a
// daemon crash is born recovering instead — the regeneration phase that
// fast-forwards to the checkpoint — and then moves to streaming.
const (
	StateGenerating = "generating"
	StateRecovering = "recovering"
	StateStreaming  = "streaming"
	StateDone       = "done"
	StateStopped    = "stopped"
	StateFailed     = "failed"
)

// terminal reports whether a run state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateStopped || state == StateFailed
}

// StartRequest is the POST /runs body: a scenario (builtin name or inline
// spec), a sink, and the run knobs.
type StartRequest struct {
	// Scenario names a builtin; Spec carries an inline scenario. Exactly
	// one must be set.
	Scenario string         `json:"scenario,omitempty"`
	Spec     *scenario.Spec `json:"spec,omitempty"`
	// UEs overrides the spec population (0 keeps it).
	UEs int `json:"ues,omitempty"`
	// Compression is the time-compression factor: the run plays
	// Compression seconds of trace time per wall-clock second (1 = real
	// time). 0 disables pacing — events pour out as fast as the sink
	// accepts them.
	Compression float64 `json:"compression,omitempty"`
	// Sink names one of the registered sinks — scenario.SinkList is the one
	// list, "" selects scenario.DefaultSink — and Out, Addr and ClosedLoop
	// are its target with scenario.SinkConfig's meaning and validation:
	// the file sinks' server-side output path (".gz" compresses), the
	// replay sink's server address (required there, reachability-probed at
	// request time) and its acknowledged closed-loop driver, whose
	// transport state feeds the cptserved_replay_* series.
	Sink       string `json:"sink,omitempty"`
	Out        string `json:"out,omitempty"`
	Addr       string `json:"addr,omitempty"`
	ClosedLoop bool   `json:"closed_loop,omitempty"`
	// Speculative / DraftTokens are the run-wide cptgpt overrides, with
	// RunOpts semantics.
	Speculative string `json:"speculative,omitempty"`
	DraftTokens int    `json:"draft_tokens,omitempty"`
	// Parallelism / BatchSize tune the generation phase (0 = defaults).
	Parallelism int `json:"parallelism,omitempty"`
	BatchSize   int `json:"batch_size,omitempty"`
	// Per-run resource budgets (0 = unlimited). MaxSpillBytes caps the
	// run's live spill-disk footprint, MaxEvents the events released, and
	// MaxWallSeconds the wall clock from launch, generation included; an
	// over-budget run fails with a typed budget_exceeded error naming what
	// ran out.
	MaxSpillBytes  int64   `json:"max_spill_bytes,omitempty"`
	MaxEvents      int64   `json:"max_events,omitempty"`
	MaxWallSeconds float64 `json:"max_wall_seconds,omitempty"`
}

// RunInfo is the wire form of a run's identity and lifecycle.
type RunInfo struct {
	ID          string         `json:"id"`
	Scenario    string         `json:"scenario"`
	Sink        string         `json:"sink"`
	UEs         int            `json:"ues"`
	Compression float64        `json:"compression"`
	State       string         `json:"state"`
	StartedAt   time.Time      `json:"started_at"`
	FinishedAt  *time.Time     `json:"finished_at,omitempty"`
	Error       string         `json:"error,omitempty"`
	Result      map[string]any `json:"result,omitempty"`
}

// SourceStats is one cptgpt source's decode telemetry in /runs/{id}/stats.
type SourceStats struct {
	Steps           int64   `json:"steps"`
	SlotSteps       int64   `json:"slot_steps"`
	SlotUtilization float64 `json:"slot_utilization"`
	DraftProposed   int64   `json:"draft_proposed"`
	DraftAccepted   int64   `json:"draft_accepted"`
	DraftAcceptance float64 `json:"draft_acceptance"`
}

// MCNStats and ReplayStats are the live mcn-sink and closed-loop replay
// transport blocks of /runs/{id}/stats; the sinks that fill them define them.
type (
	MCNStats    = scenario.MCNStats
	ReplayStats = scenario.ReplayStats
)

// RunStats is the GET /runs/{id}/stats body: a point-in-time snapshot of a
// run's live counters, safe to take while the run is in flight.
type RunStats struct {
	ID          string  `json:"id"`
	Scenario    string  `json:"scenario"`
	State       string  `json:"state"`
	Events      int64   `json:"events"`
	WallSeconds float64 `json:"wall_seconds"`
	// EventsPerSec is the cumulative streaming-phase rate; RecentPerSec is
	// the rate since the previous stats scrape (0 on the first scrape).
	EventsPerSec    float64                `json:"events_per_sec"`
	RecentPerSec    float64                `json:"recent_events_per_sec"`
	Compression     float64                `json:"compression"`
	PacerLagSeconds float64                `json:"pacer_lag_seconds"`
	Sources         map[string]SourceStats `json:"sources,omitempty"`
	MCN             *MCNStats              `json:"mcn,omitempty"`
	Replay          *ReplayStats           `json:"replay,omitempty"`

	// Deprecated: always 0, so never serialised: the sink retry layer is
	// gone. Kept because the benchmark harness reads it.
	SinkRetries int64 `json:"sink_retries,omitempty"`
	// Deprecated: always 0, so never serialised: pacer load shedding is
	// gone. Kept because the benchmark harness reads it.
	ShedEvents int64 `json:"shed_events,omitempty"`
}

// run is one scenario execution owned by the daemon. newRun sets every
// field but the ones under mu and the atomics; the registering handler
// adds the id and the journal before the run goroutine launches, and
// nothing else is mutated after.
type run struct {
	// begin is the run's journaled identity — id, scenario, sink and its
	// target, overrides, budgets, start time: what openJournal writes
	// verbatim and recovery reads back. spec is the scenario it resolved to
	// and opts the pipeline configuration derived from the two (opts.Budget
	// is the run's resource envelope).
	begin runlog.Begin
	spec  *scenario.Spec
	opts  scenario.RunOpts
	// log receives lifecycle events.
	log *slog.Logger

	// Lifecycle. runCtx is the run's root context, made with cancel at
	// construction so a DELETE or daemon Close that lands between
	// registration and launch still stops the run.
	cancel context.CancelFunc
	done   chan struct{}
	runCtx context.Context

	mu         sync.Mutex
	state      string
	streamAt   time.Time // when streaming began (zero until then)
	finishedAt time.Time
	err        error
	result     map[string]any
	// last stats-scrape sample, for the recent-rate estimate.
	scrapeAt     time.Time
	scrapeEvents int64

	// Envelope. admitUEs is the run's admission cost in UE slots and release
	// gives it back (set with the reservation before launch; called and
	// cleared by finish on the run goroutine; nil for a casualty, which
	// holds none); wallFrom is the origin of its wall-clock budget — the
	// journaled start for a crash-recovery incarnation (set by newRun), else
	// the launch instant (set by wallDeadline on the run goroutine, the only
	// one to read it); overBudget counts budget breaches into the daemon's
	// kind-labeled series.
	admitUEs   int64
	release    func()
	wallFrom   time.Time
	overBudget func(kind string)

	// Sink state. journal is the run's write-ahead log (nil when journaling
	// is off or unavailable) and jpath its file; resume is the checkpoint a
	// recovered run restarts from (nil = from scratch) and resumeSkips the
	// daemon-wide fast-forward counter.
	sink         scenario.Sink
	journal      *runlog.Journal
	jpath        string
	resume       *runlog.Checkpoint
	resumeSkips  *telemetry.Counter
	ckptEvery    int64
	ckptInterval time.Duration

	// Live telemetry. pacer is published by the lifecycle goroutine when
	// streaming begins; decode holds the per-cptgpt-source stats sinks,
	// created with the run so generation-phase telemetry is live from the
	// start. The histograms are created by registerRunMetrics before the
	// run goroutine launches (the go statement orders the writes).
	pacer         atomic.Pointer[scenario.Pacer]
	decode        map[string]*cptgpt.DecodeStats
	stepHists     map[string]*telemetry.Histogram
	pacerLagHist  *telemetry.Histogram
	pacerRateHist *telemetry.Histogram
}

// newRun builds a run from its journaled identity: a fresh submission's
// (st nil), or one a journal scan read back — to resume it from its
// checkpoint or, given no spec, only to list the casualty it is. The
// caller registers, journals and launches it.
func (s *Server) newRun(b runlog.Begin, spec *scenario.Spec, st *runlog.RunState) (*run, error) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &run{
		begin: b, spec: spec, log: s.log,
		cancel: cancel, runCtx: ctx, done: make(chan struct{}), state: StateGenerating,
		admitUEs: admissionUEs(b.UEs, spec), overBudget: s.overBudgetInc,
		ckptEvery: int64(s.opts.CheckpointEvents), ckptInterval: s.opts.CheckpointInterval,
		decode: make(map[string]*cptgpt.DecodeStats),
	}
	if st != nil {
		r.state, r.wallFrom, r.jpath = StateRecovering, b.StartedAt, st.Path
		r.resumeSkips = s.resumeSkips
	}
	if spec == nil {
		return r, nil
	}
	if r.begin.Parallelism == 0 {
		r.begin.Parallelism = s.opts.Parallelism
	}
	for _, src := range spec.Sources {
		if src.Kind == "cptgpt" {
			r.decode[src.ID] = &cptgpt.DecodeStats{}
			// Journaled, so a later daemon tells this run from one that
			// decoded in float64 (see float32Spec).
			r.begin.Precision = "f32"
		}
	}
	r.opts = scenario.RunOpts{
		UEs:         b.UEs,
		Parallelism: r.begin.Parallelism,
		BatchSize:   b.BatchSize,
		TempDir:     s.opts.TempDir,
		Speculative: b.Speculative,
		DraftTokens: b.DraftTokens,
		// The journaled resource envelope survives a crash: a resumed
		// incarnation runs under the budgets it was admitted with.
		Budget: scenario.Budget{
			MaxSpillBytes: b.MaxSpillBytes,
			MaxEvents:     b.MaxEvents,
			SpillUsed:     &s.admission.spill,
		},
		LoadModel:   s.loadModel,
		SourceStats: func(id string) *cptgpt.DecodeStats { return r.decode[id] },
		// r.stepHists is populated by registerRunMetrics before the run
		// goroutine launches, so the closure reads a settled map.
		SourceStepHist: func(id string) *telemetry.Histogram { return r.stepHists[id] },
	}
	// The pacer is the run's only clock: a replay driver sends what it
	// releases, when it releases it. A DELETE cancels the pacer, which
	// drains cleanly: the sink sees end-of-source, finishes what is in
	// flight and completes its closing handshake or flush.
	cfg := sinkConfig(&b)
	cfg.MCN, cfg.Below = s.opts.MCN, r.below
	var err error
	if r.sink, err = scenario.NewSink(cfg); err != nil {
		cancel()
		return nil, err
	}
	if st != nil {
		r.resume = st.Checkpoint
	}
	if cp, ok := r.sink.(scenario.Checkpointer); ok && st != nil {
		// Hand the sink its journaled position; one it cannot continue from
		// (a lost or compressed file) restarts the run from scratch — still
		// exactly-once: the work is redone, never double-counted.
		cur := scenario.Cursor{Session: b.SessionID}
		if c := r.resume; c != nil {
			cur.Events, cur.Bytes = c.Events, c.SinkBytes
		}
		if err := cp.Resume(cur); err != nil {
			if r.resume != nil {
				s.log.Warn("checkpoint unusable; restarting run from scratch", "run", b.RunID, "why", err)
			}
			r.resume = nil
		}
	} else if ok && s.opts.JournalDir != "" {
		// A journaled run records the position it starts from — for
		// closed-loop replay, the session a resumed incarnation rejoins.
		cur, _ := cp.Cursor()
		r.begin.SessionID = cur.Session
	}
	return r, nil
}

// sinkConfig is the sink half of a run's identity, as the registry takes it.
func sinkConfig(b *runlog.Begin) scenario.SinkConfig {
	return scenario.SinkConfig{Name: b.Sink, Out: b.Out, Addr: b.Addr, ClosedLoop: b.ClosedLoop}
}

// setState transitions the run's lifecycle state.
func (r *run) setState(state string) {
	now := time.Now()
	r.mu.Lock()
	r.state = state
	if state == StateStreaming {
		r.streamAt = now
	}
	r.mu.Unlock()
	tracez.Record(tracez.StageRunState, r.begin.RunID, now, 0, 0, state)
	if r.journal != nil {
		r.journal.AppendState(state, "")
	}
	r.log.Info("run state", "run", r.begin.RunID, "state", state)
}

// finish records the terminal state, error and sink result — the one place
// a sink's typed Result becomes the wire map. Publishing the state is the
// last thing it does: whoever observes the run terminal also finds its
// durable terminal journal record, its budget breach counted and its
// admission reservation released, so a client that sees done and submits at
// once is not refused for this run's budget. Idempotent: once a run is
// terminal the recorded outcome sticks — a panic unwinding through sink
// cleanup after a normal finish must not overwrite it. Only the run
// goroutine calls it.
func (r *run) finish(state string, err error, res scenario.Result) {
	r.mu.Lock()
	already := terminal(r.state)
	r.mu.Unlock()
	if already {
		return
	}
	now := time.Now()
	wall := now.Sub(r.begin.StartedAt)
	events := r.events()
	tracez.Record(tracez.StageRunState, r.begin.RunID, now, 0, events, state)
	if r.journal != nil {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		r.journal.AppendState(state, msg)
		// A durable terminal record keeps the next startup from resuming a
		// finished run.
		r.journal.Sync()
	}
	if err != nil {
		if be, ok := scenario.AsBudgetExceeded(err); ok && r.overBudget != nil {
			r.overBudget(be.Kind)
		}
		r.log.Error("run finished", "run", r.begin.RunID, "state", state,
			"events", events, "wall", wall, "err", err)
	} else {
		r.log.Info("run finished", "run", r.begin.RunID, "state", state,
			"events", events, "wall", wall)
	}
	if r.release != nil {
		r.release()
		r.release = nil
	}

	r.mu.Lock()
	r.state = state
	r.err = err
	if res != nil {
		r.result = res.Wire()
	}
	r.finishedAt = now
	r.mu.Unlock()
}

// wallDeadline is when the run's wall-clock budget expires, counted from
// wallFrom. A fresh run gets the full budget from launch; a recovered run
// gets the remainder measured from its journaled start, with a small grace
// so recovery can at least reach a clean terminal state. Called once, at
// launch.
func (r *run) wallDeadline() time.Time {
	d, now := time.Duration(r.begin.MaxWallNanos), time.Now()
	if r.wallFrom.IsZero() {
		r.wallFrom = now
		return now.Add(d)
	}
	if dl := r.wallFrom.Add(d); dl.Sub(now) >= time.Second {
		return dl
	}
	return now.Add(time.Second)
}

// wallBreach types err as the run's wall-clock budget breach when it is the
// expiry of the deadline launch armed — the only deadline on a run's
// context — and returns nil for anything else. The one owner of that
// decision: the generation phase (open) and the streaming phase (execute,
// on a stopped pacer) both ask it, and Used counts from wallFrom.
func (r *run) wallBreach(err error) error {
	if r.begin.MaxWallNanos <= 0 || !errors.Is(err, context.DeadlineExceeded) {
		return nil
	}
	return scenario.WrapWallClock(time.Duration(r.begin.MaxWallNanos), time.Since(r.wallFrom), err)
}

// info snapshots the run as wire-form RunInfo.
func (r *run) info() RunInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	info := RunInfo{
		ID: r.begin.RunID, Scenario: r.begin.Scenario, Sink: r.begin.Sink,
		UEs: r.begin.UEs, Compression: r.begin.Compression,
		State: r.state, StartedAt: r.begin.StartedAt, Result: r.result,
	}
	if !r.finishedAt.IsZero() {
		t := r.finishedAt
		info.FinishedAt = &t
	}
	if r.err != nil {
		info.Error = r.err.Error()
	}
	return info
}

// events returns the live released-event count: what previous
// incarnations checkpointed plus this incarnation's pacer (the resumed
// pacer only sees the regenerated suffix, so the sum counts every event
// exactly once).
func (r *run) events() int64 {
	if p := r.pacer.Load(); p != nil {
		return r.baseEvents() + p.Events()
	}
	return r.baseEvents()
}

// baseEvents is what previous incarnations released, per the checkpoint.
func (r *run) baseEvents() int64 {
	if r.resume != nil {
		return r.resume.Events
	}
	return 0
}

// lagSeconds returns the pacer's current schedule deficit.
func (r *run) lagSeconds() float64 {
	if p := r.pacer.Load(); p != nil {
		return p.Lag().Seconds()
	}
	return 0
}

// stats snapshots the run's live telemetry. The scrape window for the
// recent-rate estimate advances on every call.
func (r *run) stats() RunStats {
	now := time.Now()
	events := r.events()

	r.mu.Lock()
	st := RunStats{
		ID: r.begin.RunID, Scenario: r.begin.Scenario, State: r.state,
		Events: events, Compression: r.begin.Compression,
		PacerLagSeconds: r.lagSeconds(),
	}
	if !r.streamAt.IsZero() {
		end := now
		if !r.finishedAt.IsZero() {
			end = r.finishedAt
		}
		if wall := end.Sub(r.streamAt).Seconds(); wall > 0 {
			st.WallSeconds = wall
			st.EventsPerSec = float64(events) / wall
		}
	}
	if !r.scrapeAt.IsZero() {
		if dt := now.Sub(r.scrapeAt).Seconds(); dt > 0 {
			st.RecentPerSec = float64(events-r.scrapeEvents) / dt
		}
	}
	r.scrapeAt = now
	r.scrapeEvents = events
	r.mu.Unlock()

	if len(r.decode) > 0 {
		st.Sources = make(map[string]SourceStats, len(r.decode))
		slots := float64(r.opts.DecodeBatch())
		for id, ds := range r.decode {
			snap := ds.Load()
			s := SourceStats{
				Steps:         snap.Steps,
				SlotSteps:     snap.SlotSteps,
				DraftProposed: snap.DraftProposed,
				DraftAccepted: snap.DraftAccepted,
			}
			if s.Steps > 0 && slots > 0 {
				s.SlotUtilization = float64(s.SlotSteps) / (float64(s.Steps) * slots)
			}
			if s.DraftProposed > 0 {
				s.DraftAcceptance = float64(s.DraftAccepted) / float64(s.DraftProposed)
			}
			st.Sources[id] = s
		}
	}
	if live, ok := r.sink.(scenario.LiveSink); ok {
		st.MCN, st.Replay = live.Stats()
	}
	return st
}

// execute runs the scenario to its sink under ctx. It is the run's
// lifecycle goroutine body — open → pacer → [checkpoint tap] → sink →
// finish: generating → streaming → terminal state, with a context
// cancellation draining cleanly at either phase.
func (r *run) execute(ctx context.Context) {
	st := r.open(ctx)
	if st == nil {
		return
	}
	defer st.Close()
	pacer := r.pace(ctx, st)
	r.setState(StateStreaming)
	streamSp := tracez.Begin(tracez.StageRunStream, r.begin.RunID)

	// With a journal attached, a checkpoint tap between the pacer and the
	// sink records recovery points at the configured cadence.
	var src scenario.EventSource = pacer
	if r.journal != nil {
		src = newCkptTap(pacer, r)
	}
	res, err := r.sink.Consume(ctx, src)

	// The span ends before finish publishes the terminal state, so whoever
	// observes the run finished also finds its run.stream span recorded.
	streamSp.End(r.events(), r.begin.Sink)
	if err == nil && pacer.Stopped() {
		// A stop is an operator's unless the wall-clock budget ran out.
		err = r.wallBreach(ctx.Err())
	}
	switch {
	case err != nil:
		r.finish(StateFailed, err, nil)
	case pacer.Stopped():
		r.finish(StateStopped, nil, res)
	default:
		r.finish(StateDone, nil, res)
	}
}

// open runs the generation phase and returns the merged stream, or nil
// with the run already finished (stopped by its operator, or failed).
func (r *run) open(ctx context.Context) *scenario.Stream {
	opts := r.opts
	var recSp tracez.Active
	if r.resume != nil {
		// Recovery: regenerate deterministically and prune everything at or
		// before the checkpointed merge key; the stream yields exactly the
		// suffix the uninterrupted run would have produced.
		c := r.resume
		opts.ResumeAfter = &scenario.Event{Time: c.Time, UE: c.UE, Seq: c.Seq}
		recSp = tracez.Begin(tracez.StageRunRecover, r.begin.RunID)
	}
	genSp := tracez.Begin(tracez.StageRunGenerate, r.begin.RunID)
	st, err := r.spec.OpenContext(ctx, opts)
	genSp.End(0, r.begin.Scenario)
	if err == nil {
		if recSp.Live() {
			skipped := st.Skipped()
			if r.resumeSkips != nil {
				r.resumeSkips.Add(skipped)
			}
			recSp.End(skipped, "fast-forward")
		}
		return st
	}
	if recSp.Live() {
		recSp.End(0, "failed")
	}
	if errors.Is(err, context.Canceled) {
		r.finish(StateStopped, nil, nil)
		return nil
	}
	if breach := r.wallBreach(err); breach != nil {
		err = breach
	}
	r.finish(StateFailed, err, nil)
	return nil
}

// pace wraps the stream in the run's pacer and publishes it.
func (r *run) pace(ctx context.Context, st *scenario.Stream) *scenario.Pacer {
	pacer := scenario.NewPacer(ctx, st, r.begin.Compression)
	pacer.SetHistograms(r.pacerLagHist, r.pacerRateHist)
	// The pacer enforces the event-count ceiling, less what previous
	// incarnations already released.
	pb := r.opts.Budget
	if pb.MaxEvents > 0 {
		pb.MaxEvents = max(pb.MaxEvents-r.baseEvents(), 1)
	}
	pacer.SetBudget(pb)
	if r.resume != nil {
		pacer.ResumeAt(r.resume.Time)
	}
	r.pacer.Store(pacer)
	return pacer
}

// sinkWriterTestHook, when non-nil, wraps the sink file below the byte
// count — the seam the sink write-error and soak tests inject ENOSPC and
// slow-sink faults through.
var sinkWriterTestHook atomic.Pointer[func(runID string, w io.Writer) io.Writer]

// below is the daemon's writer layer under a file sink's gzip layer
// (scenario.SinkConfig.Below has the contract): the fault-injection seam
// and the byte count a checkpoint's sink cursor is read from — seeded with
// a resumed file's durable prefix, so cursors are always whole-file
// offsets. Nothing retries a write: (*os.File).Write already retries
// EINTR, finishes partial writes and waits out EAGAIN; any other error
// fails the run.
func (r *run) below(f io.Writer, offset int64) (io.Writer, func() int64) {
	if hook := sinkWriterTestHook.Load(); hook != nil {
		f = (*hook)(r.begin.RunID, f)
	}
	cw := &countingWriter{w: f, n: offset}
	return cw, func() int64 { return cw.n }
}
