package served

import (
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/logz"
	"cptgpt/internal/mcn"
	"cptgpt/internal/replaynet"
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
// fast-forwards to the checkpoint — and then moves to streaming. A run
// the admission controller could not fit is born queued and moves to
// generating when budget frees (or to stopped if deleted while waiting).
const (
	StateQueued     = "queued"
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
	// Sink is "count" (default), "mcn", "jsonl", "csv" or "replay".
	Sink string `json:"sink,omitempty"`
	// Out is the server-side output path for the jsonl/csv sinks
	// (".gz" compresses).
	Out string `json:"out,omitempty"`
	// Addr is the replaynet server address for the replay sink (required
	// there, reachability-probed at request time).
	Addr string `json:"addr,omitempty"`
	// ClosedLoop switches the replay sink to the acknowledged closed-loop
	// driver (CUBIC window, RTT/RTO estimation, reconnect-resume); its
	// transport state feeds the cptserved_replay_* series.
	ClosedLoop bool `json:"closed_loop,omitempty"`
	// Precision / Speculative / DraftTokens are the run-wide cptgpt
	// overrides, with RunOpts semantics.
	Precision   string `json:"precision,omitempty"`
	Speculative string `json:"speculative,omitempty"`
	DraftTokens int    `json:"draft_tokens,omitempty"`
	// Parallelism / BatchSize tune the generation phase (0 = defaults).
	Parallelism int `json:"parallelism,omitempty"`
	BatchSize   int `json:"batch_size,omitempty"`
	// Per-run resource budgets (0 = unlimited). MaxSpillBytes caps the
	// run's live spill-disk footprint, MaxEvents the events released, and
	// MaxWallSeconds the wall clock from launch; an over-budget run fails
	// with a typed budget_exceeded error naming what ran out.
	MaxSpillBytes  int64   `json:"max_spill_bytes,omitempty"`
	MaxEvents      int64   `json:"max_events,omitempty"`
	MaxWallSeconds float64 `json:"max_wall_seconds,omitempty"`
	// Degrade selects the file-sink failure policy: "fail" (default —
	// a hard sink error fails the run), "drop" (circuit breaker discards
	// writes while the sink is broken; lossy output), or "pause" (breaker
	// blocks the drain until the sink recovers; lossless, adds lag).
	Degrade string `json:"degrade,omitempty"`
	// ShedAfterLagSeconds arms pacer load shedding: when emission lags
	// the paced schedule by more than this, the pacer stops sleeping and
	// free-runs (dropping pacing, never events) until lag halves.
	ShedAfterLagSeconds float64 `json:"shed_after_lag_seconds,omitempty"`
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

// MCNStats is the live MCN-sink telemetry in /runs/{id}/stats.
type MCNStats struct {
	Events       int64   `json:"events"`
	Rejected     int64   `json:"rejected"`
	UEs          int64   `json:"ues"`
	ConnectedUEs int64   `json:"connected_ues"`
	Instances    int64   `json:"instances"`
	MeanMs       float64 `json:"latency_mean_ms"`
	P95Ms        float64 `json:"latency_p95_ms"`
	P99Ms        float64 `json:"latency_p99_ms"`
}

// ReplayStats is the live closed-loop replay transport telemetry in
// /runs/{id}/stats.
type ReplayStats struct {
	Cwnd        int64   `json:"cwnd"`
	Inflight    int64   `json:"inflight"`
	SRTTMs      float64 `json:"srtt_ms"`
	RTOMs       float64 `json:"rto_ms"`
	Sent        int64   `json:"sent"`
	Acked       int64   `json:"acked"`
	Retransmits int64   `json:"retransmits"`
	Reconnects  int64   `json:"reconnects"`
}

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
	EventsPerSec    float64 `json:"events_per_sec"`
	RecentPerSec    float64 `json:"recent_events_per_sec"`
	Compression     float64 `json:"compression"`
	PacerLagSeconds float64 `json:"pacer_lag_seconds"`
	// SinkRetries counts transient sink write errors absorbed by the
	// bounded-backoff retry layer; SinkDropped the writes the circuit
	// breaker discarded under the drop policy; ShedEvents the releases
	// the pacer load-shed (events delivered, pacing skipped).
	SinkRetries int64                  `json:"sink_retries,omitempty"`
	SinkDropped int64                  `json:"sink_dropped,omitempty"`
	ShedEvents  int64                  `json:"shed_events,omitempty"`
	Sources     map[string]SourceStats `json:"sources,omitempty"`
	MCN         *MCNStats              `json:"mcn,omitempty"`
	Replay      *ReplayStats           `json:"replay,omitempty"`
}

// run is one scenario execution owned by the daemon.
type run struct {
	id           string
	scenarioName string
	spec         *scenario.Spec
	sink         string
	out          string
	addr         string
	closedLoop   bool
	ues          int
	compression  float64
	opts         scenario.RunOpts

	cancel context.CancelFunc
	done   chan struct{}
	// runCtx is the run's root context, carried from submission so a
	// queued run can launch (or be cancelled) later.
	runCtx context.Context

	// Overload-protection plumbing, all set before the run is published.
	// budget is the run's resource envelope (also in opts.Budget);
	// degrade the file-sink failure policy; shedAfter the pacer
	// load-shedding bound; admitUEs the run's admission cost in UE slots;
	// recovered marks a crash-recovery incarnation (its wall budget
	// counts from the journaled start); overBudget counts budget breaches
	// into the daemon's kind-labeled series.
	budget     scenario.Budget
	degrade    string
	shedAfter  time.Duration
	admitUEs   int64
	recovered  bool
	overBudget func(kind string)
	// queueSp spans the admission-queue wait; breaker is the live sink
	// circuit breaker (nil until the sink opens, and for fail policy).
	queueSp tracez.Active
	breaker atomic.Pointer[breakerWriter]

	// pacer is published by the lifecycle goroutine when streaming begins;
	// its counters are the run's live event telemetry.
	pacer atomic.Pointer[scenario.Pacer]
	// decode holds the per-cptgpt-source stats sinks, created before the
	// pipeline opens so generation-phase telemetry is live from the start.
	decode map[string]*cptgpt.DecodeStats
	// mcnLive is set for the mcn sink.
	mcnLive *mcn.LiveStats
	// replayLive is set for the closed-loop replay sink.
	replayLive *replaynet.LiveStats

	// Durable-run plumbing, nil/zero when journaling is off. journal is the
	// run's write-ahead log and jpath its file ("" = memory-only or none);
	// resume/resumeKey carry the checkpoint a recovered run restarts from,
	// baseEvents the events prior incarnations released, sessionID the
	// fixed closed-loop replay session, and replayResumeFrom the absolute
	// sequence the replay server had applied at the checkpoint. All are set
	// before the run goroutine launches and never mutated after.
	journal          *runlog.Journal
	jpath            string
	resume           *runlog.Checkpoint
	resumeKey        *scenario.Event
	baseEvents       int64
	sessionID        uint64
	replayResumeFrom uint64
	ckptEvery        int64
	ckptInterval     time.Duration
	// resumeSkips is the daemon-wide resume fast-forward counter (nil
	// outside recovery); sinkRetries counts absorbed transient sink errors.
	resumeSkips *telemetry.Counter
	sinkRetries atomic.Int64

	// log receives lifecycle events (nil = silent). Set before the run
	// goroutine launches, never mutated after.
	log *logz.Logger
	// Per-run distribution series, created by registerRunMetrics before the
	// run goroutine launches (the go statement orders the writes) and fed by
	// execute's pipeline wiring. stepHists is keyed by cptgpt source id.
	pacerLagHist  *telemetry.Histogram
	pacerRateHist *telemetry.Histogram
	mcnLatHist    *telemetry.Histogram
	replayRTTHist *telemetry.Histogram
	stepHists     map[string]*telemetry.Histogram

	mu         sync.Mutex
	state      string
	startedAt  time.Time
	streamAt   time.Time // when streaming began (zero until then)
	finishedAt time.Time
	err        error
	result     map[string]any

	// last stats-scrape sample, for the recent-rate estimate.
	scrapeAt     time.Time
	scrapeEvents int64
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
	tracez.Record(tracez.StageRunState, r.id, now, 0, 0, state)
	if r.journal != nil {
		r.journal.AppendState(state, "")
	}
	r.log.Infow("run state", "run", r.id, "state", state)
}

// finish records the terminal state, error and sink result. Idempotent:
// once a run is terminal the recorded outcome sticks — a panic unwinding
// through sink cleanup after a normal finish must not overwrite it.
func (r *run) finish(state string, err error, result map[string]any) {
	now := time.Now()
	r.mu.Lock()
	if terminal(r.state) {
		r.mu.Unlock()
		return
	}
	r.state = state
	r.err = err
	r.result = result
	r.finishedAt = now
	wall := now.Sub(r.startedAt)
	events := r.events()
	r.mu.Unlock()
	tracez.Record(tracez.StageRunState, r.id, now, 0, events, state)
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
		r.log.Errorw("run finished", "run", r.id, "state", state,
			"events", events, "wall", wall, "err", err)
	} else {
		r.log.Infow("run finished", "run", r.id, "state", state,
			"events", events, "wall", wall)
	}
}

// wallDeadline is when the run's wall-clock budget expires. A fresh run
// gets the full budget from launch (queue wait excluded); a recovered run
// gets the remainder measured from its journaled start, with a small
// grace so recovery can at least reach a clean terminal state.
func (r *run) wallDeadline() time.Time {
	d := r.budget.MaxWall
	if r.recovered {
		if rem := d - time.Since(r.startedAt); rem < time.Second {
			d = time.Second
		} else {
			d = rem
		}
	}
	return time.Now().Add(d)
}

// info snapshots the run as wire-form RunInfo.
func (r *run) info() RunInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	info := RunInfo{
		ID: r.id, Scenario: r.scenarioName, Sink: r.sink,
		UEs: r.ues, Compression: r.compression,
		State: r.state, StartedAt: r.startedAt, Result: r.result,
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
		return r.baseEvents + p.Events()
	}
	return r.baseEvents
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
		ID: r.id, Scenario: r.scenarioName, State: r.state,
		Events: events, Compression: r.compression,
		PacerLagSeconds: r.lagSeconds(),
		SinkRetries:     r.sinkRetries.Load(),
	}
	if p := r.pacer.Load(); p != nil {
		st.ShedEvents = p.Shed()
	}
	if b := r.breaker.Load(); b != nil {
		st.SinkDropped = b.dropped.Load()
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
	if r.mcnLive != nil {
		st.MCN = &MCNStats{
			Events:       r.mcnLive.Events.Load(),
			Rejected:     r.mcnLive.Rejected.Load(),
			UEs:          r.mcnLive.UEs.Load(),
			ConnectedUEs: r.mcnLive.ConnectedUEs.Load(),
			Instances:    r.mcnLive.Instances.Load(),
			MeanMs:       float64(r.mcnLive.MeanLatencyNanos.Load()) / 1e6,
			P95Ms:        float64(r.mcnLive.P95LatencyNanos.Load()) / 1e6,
			P99Ms:        float64(r.mcnLive.P99LatencyNanos.Load()) / 1e6,
		}
	}
	if live := r.replayLive; live != nil {
		st.Replay = &ReplayStats{
			Cwnd:        live.CwndEvents.Load(),
			Inflight:    live.Inflight.Load(),
			SRTTMs:      float64(live.SRTTNanos.Load()) / 1e6,
			RTOMs:       float64(live.RTONanos.Load()) / 1e6,
			Sent:        live.Sent.Load(),
			Acked:       live.Acked.Load(),
			Retransmits: live.Retransmits.Load(),
			Reconnects:  live.Reconnects.Load(),
		}
	}
	return st
}

// execute runs the scenario to its sink under ctx. It is the run's
// lifecycle goroutine body: generating → streaming → terminal state, with
// a context cancellation draining cleanly at either phase.
func (r *run) execute(ctx context.Context, mcnCfg mcn.Config) {
	opts := r.opts
	var recSp tracez.Active
	if r.resume != nil {
		// Recovery: regenerate deterministically and prune everything at or
		// before the checkpointed merge key; the stream yields exactly the
		// suffix the uninterrupted run would have produced.
		opts.ResumeAfter = r.resumeKey
		recSp = tracez.Begin(tracez.StageRunRecover, r.id)
	}
	genSp := tracez.Begin(tracez.StageRunGenerate, r.id)
	st, err := r.spec.OpenContext(ctx, opts)
	genSp.End(0, r.scenarioName)
	if err != nil {
		if recSp.Live() {
			recSp.End(0, "failed")
		}
		switch {
		case errors.Is(err, context.Canceled):
			r.finish(StateStopped, nil, nil)
		case r.budget.MaxWall > 0 && errors.Is(err, context.DeadlineExceeded):
			// The wall-clock budget expired during generation: the only
			// deadline on a run's context is its own budget, so classify
			// the expiry as the typed breach.
			if _, typed := scenario.AsBudgetExceeded(err); !typed {
				err = scenario.WrapWallClock(r.budget.MaxWall, time.Since(r.startedAt), err)
			}
			r.finish(StateFailed, err, nil)
		default:
			r.finish(StateFailed, err, nil)
		}
		return
	}
	defer st.Close()
	if recSp.Live() {
		skipped := st.Skipped()
		if r.resumeSkips != nil {
			r.resumeSkips.Add(skipped)
		}
		recSp.End(skipped, "fast-forward")
	}

	pacer := scenario.NewPacer(ctx, st, r.compression)
	pacer.SetHistograms(r.pacerLagHist, r.pacerRateHist)
	// The pacer enforces the event-count ceiling (less what previous
	// incarnations already released) and classifies the wall deadline; a
	// resumed run also continues its cumulative shed counter.
	pb := r.budget
	if pb.MaxEvents > 0 {
		if rem := pb.MaxEvents - r.baseEvents; rem >= 1 {
			pb.MaxEvents = rem
		} else {
			pb.MaxEvents = 1
		}
	}
	pacer.SetBudget(pb)
	if r.shedAfter > 0 {
		pacer.SetShedAfterLag(r.shedAfter)
	}
	if r.resume != nil {
		pacer.ResumeAt(r.resume.TraceOffset)
		pacer.ResumeShed(r.resume.Shed)
	}
	r.pacer.Store(pacer)
	r.setState(StateStreaming)

	streamSp := tracez.Begin(tracez.StageRunStream, r.id)

	// With a journal attached, a checkpoint tap between the pacer and the
	// sink records recovery points at the configured cadence.
	var src scenario.EventSource = pacer
	var tap *ckptTap
	if r.journal != nil {
		tap = newCkptTap(pacer, r)
		src = tap
	}

	var result map[string]any
	switch r.sink {
	case "count":
		var sum scenario.Summary
		if sum, err = scenario.Drain(src); err == nil {
			result = map[string]any{
				"events":            sum.Events,
				"first_time":        sum.FirstTime,
				"last_time":         sum.LastTime,
				"peak_rate":         sum.PeakRate,
				"peak_window_start": sum.PeakWindowStart,
			}
		}
	case "mcn":
		mcnCfg.Live = r.mcnLive
		mcnCfg.LatencySink = r.mcnLatHist
		var rep *mcn.Report
		if rep, err = scenario.RunMCN(src, mcnCfg); err == nil {
			result = map[string]any{
				"events":          rep.Events,
				"rejected":        rep.Rejected,
				"ues":             rep.UEs,
				"latency_mean_ms": 1e3 * rep.MeanLatencySec,
				"latency_p95_ms":  1e3 * rep.P95LatencySec,
				"latency_p99_ms":  1e3 * rep.P99LatencySec,
				"peak_rate":       rep.PeakRate,
				"max_instances":   rep.MaxInstancesUsed,
			}
		}
	case "jsonl", "csv":
		var n int64
		if n, err = r.writeFile(ctx, src, tap); err == nil {
			result = map[string]any{"events": n, "out": r.out}
			if b := r.breaker.Load(); b != nil && b.dropped.Load() > 0 {
				result["dropped"] = b.dropped.Load()
			}
		}
	case "replay":
		// The pacer already paces against wall clock, so the replay drivers
		// run unpaced (Speedup 0) on top of it. A DELETE cancels the pacer,
		// which drains cleanly: the driver sees end-of-source, finishes the
		// in-flight window and completes the STATS/BYE handshake, so the
		// server-side session always ends on a frame boundary.
		if r.closedLoop {
			var cst replaynet.ClosedStats
			copts := replaynet.ClosedOpts{
				Live: r.replayLive, RTTSink: r.replayRTTHist,
				// A journaled run fixes its session identity at submission so
				// a resumed incarnation rejoins the server-side session and
				// skips everything the server already applied — exactly-once
				// end to end.
				SessionID:  r.sessionID,
				ResumeFrom: r.replayResumeFrom,
			}
			if cst, err = scenario.ReplayClosed(r.addr, src, copts); err == nil {
				result = map[string]any{
					"events":          cst.Server.Events,
					"rejected":        cst.Server.Rejected,
					"duplicates":      cst.Server.Duplicates,
					"sent":            cst.Sent,
					"acked":           cst.Acked,
					"retransmits":     cst.Retransmits,
					"reconnects":      cst.Reconnects,
					"latency_mean_ms": float64(cst.MeanLatency) / 1e6,
					"latency_p99_ms":  float64(cst.P99Latency) / 1e6,
					"achieved_rate":   cst.AchievedRate,
				}
			}
		} else {
			var rst replaynet.Stats
			if rst, err = scenario.ReplayTCP(r.addr, src, replaynet.ReplayOpts{}); err == nil {
				result = map[string]any{
					"events":             rst.Events,
					"rejected":           rst.Rejected,
					"peak_connected_ues": rst.PeakConnectedUEs,
				}
			}
		}
	default:
		err = fmt.Errorf("served: unknown sink %q", r.sink)
	}

	// The span ends before finish publishes the terminal state, so whoever
	// observes the run finished also finds its run.stream span recorded.
	streamSp.End(r.events(), r.sink)
	switch {
	case err != nil:
		r.finish(StateFailed, err, nil)
	case pacer.Stopped():
		r.finish(StateStopped, nil, result)
	default:
		r.finish(StateDone, nil, result)
	}
}

// sinkWriterTestHook, when non-nil, wraps the sink file below the retry
// layer — the seam the degrade and soak tests inject ENOSPC and slow-sink
// faults through.
var sinkWriterTestHook atomic.Pointer[func(runID string, w io.Writer) io.Writer]

// writeFile drains the source into the run's jsonl/csv output file,
// gzip-compressing a ".gz" path. The writer chain is flushed and closed
// before the event count is returned, so a stopped run's file is complete
// up to its last released event — never truncated mid-line.
//
// On a resumed run the file is cut back to the checkpoint's durable byte
// cursor and appended to; with the bit-identical regenerated suffix this
// makes the final file byte-for-byte equal to an uninterrupted run's
// (exactly-once). Gzip forecloses the cursor arithmetic, so ".gz" runs
// restart from scratch instead (resumePlan never hands them a
// checkpoint). With a checkpoint tap attached, the tap's sync hook
// flushes the encoder and fsyncs the file before each checkpoint is
// recorded — a checkpoint always implies a durable sink prefix covering
// exactly the events at or before its key.
func (r *run) writeFile(ctx context.Context, src scenario.EventSource, tap *ckptTap) (int64, error) {
	gz := strings.HasSuffix(r.out, ".gz")
	resumed := r.resume != nil && !gz
	var (
		f         *os.File
		err       error
		baseLines int64
	)
	if resumed {
		c := r.resume
		baseLines = c.SinkLines
		f, err = os.OpenFile(r.out, os.O_WRONLY, 0o644)
		if err == nil {
			if terr := f.Truncate(c.SinkBytes); terr != nil {
				err = terr
			} else if _, serr := f.Seek(c.SinkBytes, io.SeekStart); serr != nil {
				err = serr
			}
			if err != nil {
				f.Close()
			}
		}
	} else {
		f, err = os.Create(r.out)
	}
	if err != nil {
		return 0, err
	}
	var base io.Writer = f
	if hook := sinkWriterTestHook.Load(); hook != nil {
		base = (*hook)(r.id, f)
	}
	cw := &countingWriter{w: &retryWriter{w: base, retries: &r.sinkRetries}}
	if resumed {
		cw.n = r.resume.SinkBytes
	}
	var w io.Writer = cw
	var gzw *gzip.Writer
	if gz {
		gzw = gzip.NewWriter(cw)
		w = gzw
	}
	if r.degrade == DegradeDrop || r.degrade == DegradePause {
		// The breaker sits above the byte-counting layer, so dropped
		// writes never reach the durable-cursor arithmetic and resumed
		// checkpoints stay exact.
		bw := newBreakerWriter(w, ctx, r.degrade, r.id)
		r.breaker.Store(bw)
		defer bw.finishSpan()
		w = bw
	}
	lw, lerr := scenario.NewLineWriter(w, r.sink, src, !resumed)
	if lerr != nil {
		f.Close()
		return 0, lerr
	}
	if tap != nil && !gz {
		tap.syncSink = func(c *runlog.Checkpoint) bool {
			if lw.Flush() != nil || f.Sync() != nil {
				return false
			}
			c.SinkBytes = cw.n
			c.SinkLines = baseLines + int64(lw.Count())
			return true
		}
	}
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	defer func() { sp.End(int64(lw.Count()), r.sink) }()
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		if err = lw.Write(e); err != nil {
			break
		}
	}
	if err == nil {
		err = src.Err()
	}
	if ferr := lw.Flush(); err == nil {
		err = ferr
	}
	if gzw != nil {
		if cerr := gzw.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return baseLines + int64(lw.Count()), err
}
