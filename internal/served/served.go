// Package served is the cptserved daemon core: a long-running HTTP service
// that loads CPT-GPT models once, runs scenarios on demand, paces their
// event streams against wall-clock time under a compression factor, and
// exposes live per-run telemetry.
//
// The management API (see docs/OPERATIONS.md for the full catalog):
//
//	POST   /runs            start a run (builtin name or inline spec)
//	GET    /runs            list runs
//	GET    /runs/{id}       inspect one run
//	GET    /runs/{id}/stats live telemetry snapshot (JSON)
//	DELETE /runs/{id}       stop a run (clean drain)
//	GET    /metrics         Prometheus text exposition
//	GET    /healthz         liveness
//	GET    /debug/trace     flight-recorder spans + per-stage aggregates
//	GET    /debug/pprof/*   Go profiler endpoints (opt-in via Options)
//
// Concurrency contract: a Server is safe for concurrent use by any number
// of HTTP clients. Each run executes on its own goroutine; its event
// pipeline is single-consumer (the run goroutine), while its telemetry
// (pacer counters, DecodeStats, mcn.LiveStats, the telemetry registry) is
// all atomics, read by handlers and the /metrics scraper without touching
// the hot path. Close cancels every run's context; the clean-drain
// contract of scenario.Pacer means stopped runs flush their sinks before
// ending, so stopping the daemon never truncates output mid-record.
//
// Durability: with Options.JournalDir set, every run maintains a
// write-ahead journal (internal/runlog) of its identity, progress
// checkpoints and state transitions, and Recover resumes interrupted runs
// after a daemon crash — byte-identical file sinks, exactly-once
// closed-loop replay. See docs/ARCHITECTURE.md for the journal format and
// the recovery state machine, docs/OPERATIONS.md for the runbook.
package served

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/logz"
	"cptgpt/internal/mcn"
	"cptgpt/internal/runlog"
	"cptgpt/internal/scenario"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/tracez"
)

// DefaultMaxFinishedRuns is the number of terminal runs retained (with
// their stats and metric series) before the oldest are evicted.
const DefaultMaxFinishedRuns = 256

// Options configures a Server.
type Options struct {
	// TempDir hosts per-run spill files ("" = system temp dir).
	TempDir string
	// Parallelism is the default generation-phase worker bound applied to
	// runs that do not set their own (0 = the engine default).
	Parallelism int
	// MaxFinishedRuns bounds the terminal-run history (0 = default).
	MaxFinishedRuns int
	// MCN configures the mcn sink; zero value means mcn.DefaultConfig().
	MCN mcn.Config
	// Log receives the daemon's structured lifecycle events (nil = silent).
	Log *logz.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// management mux. Off by default: the profiler exposes goroutine dumps
	// and should only face operators.
	EnablePprof bool

	// JournalDir enables durable runs: every run appends a write-ahead
	// journal (<dir>/<run-id>.runlog) of its spec, progress checkpoints and
	// state transitions, and Recover resumes interrupted runs from it after
	// a daemon crash. "" disables journaling. A journal writes each record
	// through as it is appended and fsyncs within 100 ms (package runlog),
	// so a daemon crash loses no record and a machine crash at most 100 ms.
	JournalDir string
	// Recover selects Recover's disposition of interrupted journals:
	// "resume" (default), "fail" or "ignore".
	Recover string
	// CheckpointEvents / CheckpointInterval set the journal checkpoint
	// cadence (0 = defaults).
	CheckpointEvents   int
	CheckpointInterval time.Duration

	// Admission control — daemon-wide budgets checked at POST /runs, all
	// 0 = unlimited. MaxActiveRuns bounds concurrently active runs,
	// MaxTotalUEs the summed UE population across them, MaxSpillBytes the
	// daemon-wide live spill-disk footprint. An over-budget submission is
	// rejected with 429 and a Retry-After; one whose own UE population
	// exceeds MaxTotalUEs, with 400.
	MaxActiveRuns int
	MaxTotalUEs   int64
	MaxSpillBytes int64
}

// Server owns the model cache, the run registry and the telemetry
// registry behind the cptserved HTTP API.
type Server struct {
	opts  Options
	reg   *telemetry.Registry
	log   *logz.Logger
	start time.Time

	runsStarted *telemetry.Counter
	runPanics   *telemetry.Counter
	// journalM aggregates every run journal's append/fsync counters;
	// recoveries and resumeSkips exist only when journaling is enabled.
	journalM    runlog.Metrics
	recoveries  *telemetry.Counter
	resumeSkips *telemetry.Counter

	// admission is the lock-free daemon-wide resource ledger; the
	// counters record its verdicts, budgetExceeded (keyed by budget kind)
	// the per-run budget breaches.
	admission      admitter
	admitted       *telemetry.Counter
	rejected       *telemetry.Counter
	budgetExceeded map[string]*telemetry.Counter

	mu           sync.Mutex
	models       map[string]*cptgpt.Model
	runs         map[string]*run
	order        []string // insertion order, for listing and eviction
	seq          int
	shuttingDown bool
	wg           sync.WaitGroup
}

// New builds a Server. No goroutines start until the first run.
func New(opts Options) *Server {
	if opts.MaxFinishedRuns <= 0 {
		opts.MaxFinishedRuns = DefaultMaxFinishedRuns
	}
	if opts.CheckpointEvents <= 0 {
		opts.CheckpointEvents = DefaultCheckpointEvents
	}
	if opts.CheckpointInterval <= 0 {
		opts.CheckpointInterval = DefaultCheckpointInterval
	}
	s := &Server{
		opts:   opts,
		reg:    telemetry.NewRegistry(),
		log:    opts.Log,
		start:  time.Now(),
		models: make(map[string]*cptgpt.Model),
		runs:   make(map[string]*run),
	}
	s.admission.maxRuns = int64(opts.MaxActiveRuns)
	s.admission.maxUEs = opts.MaxTotalUEs
	s.admission.maxSpill = opts.MaxSpillBytes
	// The daemon always flies with the recorder on: the ring is fixed-size
	// and span recording is a few atomics, so there is no reason to make
	// operators opt in before the incident they need it for.
	tracez.Enable()
	s.reg.GaugeFunc("cptserved_uptime_seconds",
		"Seconds since the daemon started.",
		func() float64 { return time.Since(s.start).Seconds() })
	s.reg.GaugeFunc("cptserved_models_loaded",
		"Distinct model files resident in the daemon's cache.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.models))
		})
	s.reg.GaugeFunc("cptserved_runs_active",
		"Runs currently generating or streaming.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			n := 0
			for _, r := range s.runs {
				r.mu.Lock()
				if !terminal(r.state) {
					n++
				}
				r.mu.Unlock()
			}
			return float64(n)
		})
	s.runsStarted = s.reg.Counter("cptserved_runs_started_total",
		"Runs accepted by POST /runs since daemon start.")
	s.runPanics = s.reg.Counter("cptserved_run_panics_total",
		"Run goroutines that panicked and were contained as failed runs.")
	s.admitted = s.reg.Counter("cptserved_admission_admitted_total",
		"Submissions admitted.")
	s.rejected = s.reg.Counter("cptserved_admission_rejected_total",
		"Submissions rejected with 429 (a daemon-wide budget exhausted).")
	s.reg.GaugeFunc("cptserved_spill_bytes",
		"Live spill-disk footprint summed across runs.",
		func() float64 { return float64(s.admission.spill.Load()) })
	s.budgetExceeded = make(map[string]*telemetry.Counter, 3)
	for _, kind := range []string{scenario.BudgetSpillBytes, scenario.BudgetEvents, scenario.BudgetWallClock} {
		s.budgetExceeded[kind] = s.reg.Counter("cptserved_budget_exceeded_total",
			"Runs failed by a per-run resource budget, by exhausted resource.",
			telemetry.L("kind", kind))
	}
	s.reg.GaugeFunc("cptserved_healthz_state",
		"Readiness: 1 when serving, 0 when degraded (see GET /healthz).",
		func() float64 {
			if len(s.healthReasons()) > 0 {
				return 0
			}
			return 1
		})
	if opts.JournalDir != "" {
		s.reg.CounterFunc("cptserved_journal_appends_total",
			"Records appended to run journals.", s.journalM.Appends.Load)
		s.reg.CounterFunc("cptserved_journal_bytes_total",
			"Framed bytes appended to run journals.", s.journalM.Bytes.Load)
		s.reg.CounterFunc("cptserved_journal_fsyncs_total",
			"Journal fsyncs: barriers plus at most one per 100 ms of appends, none while idle.", s.journalM.Fsyncs.Load)
		s.reg.CounterFunc("cptserved_journal_errors_total",
			"Disk errors that degraded a run journal to memory-only.", s.journalM.Errors.Load)
		s.recoveries = s.reg.Counter("cptserved_journal_recoveries_total",
			"Interrupted runs resumed from their journals at startup.")
		s.resumeSkips = s.reg.Counter("cptserved_journal_resume_skip_events_total",
			"Checkpointed events regenerated and pruned during resume fast-forward.")
	}
	return s
}

// loadModel resolves a model path through the daemon-lifetime cache, so a
// model file is deserialized once no matter how many runs reference it.
func (s *Server) loadModel(path string) (*cptgpt.Model, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		abs = path
	}
	s.mu.Lock()
	if m, ok := s.models[abs]; ok {
		s.mu.Unlock()
		return m, nil
	}
	s.mu.Unlock()
	// Load outside the lock: model files can be large and two concurrent
	// first-loads of the same file are harmless (last write wins, both
	// models are equivalent).
	t0 := time.Now()
	m, err := cptgpt.LoadFile(path)
	if err != nil {
		s.log.Warnw("model load failed", "path", path, "err", err)
		return nil, err
	}
	s.log.Infow("model loaded", "path", path, "dur", time.Since(t0))
	s.mu.Lock()
	s.models[abs] = m
	s.mu.Unlock()
	return m, nil
}

// PreloadModel loads a model into the cache at startup so the first run
// referencing it pays no load latency.
func (s *Server) PreloadModel(path string) error {
	_, err := s.loadModel(path)
	return err
}

// Handler returns the daemon's HTTP API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /runs", s.handleStart)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /runs/{id}", s.handleGet)
	mux.HandleFunc("GET /runs/{id}/stats", s.handleStats)
	mux.HandleFunc("DELETE /runs/{id}", s.handleStop)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /debug/trace", tracez.Handler())
	if s.opts.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// overBudgetInc counts a run's budget breach into the kind-labeled
// cptserved_budget_exceeded_total series.
func (s *Server) overBudgetInc(kind string) {
	if c := s.budgetExceeded[kind]; c != nil {
		c.Inc()
	}
}

// healthReasons computes why the daemon is degraded — empty when it is
// healthy. Degraded means still serving, but with reduced guarantees an
// operator should know about before pointing more load here: an active
// run's journal fell back to memory-only (crash recovery lost).
func (s *Server) healthReasons() []string {
	s.mu.Lock()
	runs := make([]*run, 0, len(s.runs))
	for _, r := range s.runs {
		runs = append(runs, r)
	}
	s.mu.Unlock()
	for _, r := range runs {
		r.mu.Lock()
		j, term := r.journal, terminal(r.state)
		r.mu.Unlock()
		if !term && j != nil && j.Degraded() {
			return []string{"journal_degraded"}
		}
	}
	return nil
}

// handleHealthz is readiness-aware liveness: 200 while healthy, 503 with
// the reasons while degraded — load balancers steer traffic away while
// operators read the detail.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{"uptime_seconds": time.Since(s.start).Seconds()}
	if reasons := s.healthReasons(); len(reasons) > 0 {
		body["ok"] = false
		body["state"] = "degraded"
		body["reasons"] = reasons
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	body["ok"] = true
	body["state"] = "serving"
	writeJSON(w, http.StatusOK, body)
}

// Close stops every run (clean drain), waits for their goroutines, and
// rejects new runs. Bounded by ctx: if the drain outlasts it, Close
// returns ctx.Err() with run goroutines still finishing in the background.
func (s *Server) Close(ctx context.Context) error {
	t0 := time.Now()
	s.mu.Lock()
	s.shuttingDown = true
	active := 0
	for _, r := range s.runs {
		r.mu.Lock()
		if !terminal(r.state) {
			active++
		}
		r.mu.Unlock()
		r.cancel()
	}
	s.mu.Unlock()
	s.log.Infow("daemon closing", "active_runs", active)

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		s.log.Infow("daemon closed", "drain", time.Since(t0))
		return nil
	case <-ctx.Done():
		s.log.Warnw("daemon close timed out with runs still draining", "after", time.Since(t0))
		return ctx.Err()
	}
}

// resolveSpec turns a StartRequest's scenario/spec pair into a validated
// Spec and its display name.
func resolveSpec(req *StartRequest) (*scenario.Spec, string, error) {
	switch {
	case req.Scenario != "" && req.Spec != nil:
		return nil, "", errors.New("set exactly one of scenario and spec, not both")
	case req.Scenario != "":
		spec, err := scenario.Builtin(req.Scenario)
		if err != nil {
			return nil, "", err
		}
		return spec, req.Scenario, nil
	case req.Spec != nil:
		if err := req.Spec.Validate(); err != nil {
			return nil, "", err
		}
		name := req.Spec.Name
		if name == "" {
			name = "inline"
		}
		return req.Spec, name, nil
	default:
		return nil, "", errors.New("set scenario (builtin name) or spec (inline scenario)")
	}
}

// validateStart checks the run knobs that can be rejected before any work
// starts, so bad requests fail with 400 rather than a failed run. The sink
// and its target are the registry's to check (newRun → scenario.NewSink).
func validateStart(req *StartRequest) error {
	opts := scenario.RunOpts{Speculative: req.Speculative, DraftTokens: req.DraftTokens}
	if err := opts.Validate(); err != nil {
		return err
	}
	if req.Compression < 0 {
		return errors.New("compression must be ≥ 0")
	}
	if req.UEs < 0 {
		return errors.New("ues must be ≥ 0")
	}
	if req.MaxSpillBytes < 0 || req.MaxEvents < 0 {
		return errors.New("max_spill_bytes and max_events must be ≥ 0")
	}
	if req.MaxWallSeconds < 0 {
		return errors.New("max_wall_seconds must be ≥ 0")
	}
	return nil
}

// runFromRequest turns a decoded POST /runs body into an unregistered run,
// or the 400 that refuses it. The replay address is probed last, after every
// check that needs no network, so a request that is wrong on its face
// never waits out a dial timeout.
func (s *Server) runFromRequest(body *StartRequest) (*run, error) {
	if err := validateStart(body); err != nil {
		return nil, err
	}
	spec, name, err := resolveSpec(body)
	if err != nil {
		return nil, err
	}
	// A run bigger than the whole UE budget can never be admitted: a 400,
	// not a 429 inviting retries that cannot succeed.
	if ues := admissionUEs(body.UEs, spec); s.admission.maxUEs > 0 && ues > s.admission.maxUEs {
		return nil, fmt.Errorf("ues %d exceeds the daemon's %s limit of %d", ues, AdmitTotalUEs, s.admission.maxUEs)
	}
	b := runlog.Begin{
		Scenario: name, Sink: body.Sink,
		Out: body.Out, Addr: body.Addr, ClosedLoop: body.ClosedLoop,
		UEs: body.UEs, Compression: body.Compression,
		Speculative: body.Speculative, DraftTokens: body.DraftTokens,
		Parallelism: body.Parallelism, BatchSize: body.BatchSize,
		MaxSpillBytes: body.MaxSpillBytes, MaxEvents: body.MaxEvents,
		MaxWallNanos: int64(time.Duration(body.MaxWallSeconds * float64(time.Second))),
		StartedAt:    time.Now(),
	}
	if b.Sink == "" {
		b.Sink = scenario.DefaultSink
	}
	r, err := s.newRun(b, spec, nil)
	if err != nil {
		return nil, err
	}
	if err := sinkConfig(&b).Probe(); err != nil {
		r.cancel()
		return nil, err
	}
	return r, nil
}

func (s *Server) handleStart(w http.ResponseWriter, req *http.Request) {
	var body StartRequest
	dec := json.NewDecoder(req.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	r, err := s.runFromRequest(&body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}

	s.mu.Lock()
	if s.shuttingDown {
		s.mu.Unlock()
		r.cancel()
		writeErr(w, http.StatusServiceUnavailable, errors.New("daemon is shutting down"))
		return
	}
	if admitErr := s.admission.check(r.admitUEs); admitErr != nil {
		// The check is taken under s.mu, so the rejection is
		// authoritative, not a stale read racing another admission.
		s.mu.Unlock()
		r.cancel()
		s.rejected.Inc()
		s.log.Infow("run rejected by admission control", "scenario", r.begin.Scenario,
			"reason", admitErr.Reason, "used", admitErr.Used, "limit", admitErr.Limit)
		w.Header().Set("Retry-After",
			fmt.Sprintf("%d", int(admitErr.RetryAfter.Seconds())))
		writeErr(w, http.StatusTooManyRequests, admitErr)
		return
	}
	s.seq++
	r.begin.RunID = fmt.Sprintf("run-%d", s.seq)
	s.runs[r.begin.RunID] = r
	s.order = append(s.order, r.begin.RunID)
	r.release = s.admission.reserve(r.admitUEs)
	s.wg.Add(1)
	evicted := s.evictLocked()
	s.mu.Unlock()

	// Drop evicted runs' series outside s.mu: registry callbacks take
	// s.mu under the registry lock, so the reverse order would deadlock.
	// Evicted journals go too — an evicted run must not resurrect at the
	// next startup.
	for _, er := range evicted {
		s.reg.Drop("run", er.begin.RunID)
		er.removeJournal()
	}

	s.runsStarted.Inc()
	s.registerRunMetrics(r)
	s.admitted.Inc()
	if s.opts.JournalDir != "" {
		s.openJournal(r)
	}
	s.log.Infow("run started", "run", r.begin.RunID, "scenario", r.begin.Scenario,
		"sink", r.begin.Sink, "ues", r.begin.UEs, "compression", r.begin.Compression)

	s.launch(r)

	writeJSON(w, http.StatusCreated, r.info())
}

// executeTestHook, when non-nil, runs in the run goroutine before
// execute — the seam the panic-containment tests inject through.
var executeTestHook atomic.Pointer[func(*run)]

// launch starts the run's lifecycle goroutine. The panic recovery is the
// innermost defer, so a panic anywhere in the pipeline is contained: the
// run finishes failed with the stack in its error, the journal records
// the terminal state and closes, and the daemon carries on serving. Every
// path ends in run.finish, which releases the run's admission reservation
// before the terminal state becomes observable.
func (s *Server) launch(r *run) {
	ctx := r.runCtx
	go func() {
		defer s.wg.Done()
		defer close(r.done)
		defer r.cancel()
		// A wall-clock budget becomes a real context deadline here, at
		// launch. Its expiry is typed by run.wallBreach.
		if r.begin.MaxWallNanos > 0 {
			var cancelWall context.CancelFunc
			ctx, cancelWall = context.WithDeadline(ctx, r.wallDeadline())
			defer cancelWall()
		}
		defer func() {
			if r.journal != nil {
				r.journal.Close()
			}
		}()
		defer func() {
			if p := recover(); p != nil {
				s.runPanics.Inc()
				r.finish(StateFailed, fmt.Errorf("served: run panicked: %v\n%s", p, debug.Stack()), nil)
			}
		}()
		if hook := executeTestHook.Load(); hook != nil {
			(*hook)(r)
		}
		r.execute(ctx)
	}()
}

// evictLocked trims the oldest terminal runs past the retention bound and
// returns the evicted runs (whose metric series and journal files the
// caller must drop after releasing s.mu). Caller holds s.mu.
func (s *Server) evictLocked() []*run {
	excess := len(s.order) - s.opts.MaxFinishedRuns
	if excess <= 0 {
		return nil
	}
	var evicted []*run
	kept := s.order[:0]
	for _, id := range s.order {
		r := s.runs[id]
		r.mu.Lock()
		evictable := terminal(r.state)
		r.mu.Unlock()
		if excess > 0 && evictable {
			delete(s.runs, id)
			evicted = append(evicted, r)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
	return evicted
}

// registerRunMetrics wires the run's live counters into /metrics. All the
// functions read atomics (or take the run's small state lock), never the
// registry itself, per the telemetry callback contract.
func (s *Server) registerRunMetrics(r *run) {
	lbl := []telemetry.Label{telemetry.L("run", r.begin.RunID), telemetry.L("scenario", r.begin.Scenario)}
	s.reg.CounterFunc("cptserved_run_events_total",
		"Events released downstream of the pacer, per run.",
		r.events, lbl...)
	s.reg.GaugeFunc("cptserved_run_pacer_lag_seconds",
		"How far the run's emission lags its paced schedule.",
		r.lagSeconds, lbl...)
	// Distribution series: native histograms fed from the run's hot paths.
	// They are created here — before the run goroutine launches, so the go
	// statement's happens-before makes them visible to execute() without
	// further synchronization.
	r.pacerLagHist = s.reg.Histogram("cptserved_pacer_lag_seconds",
		"Distribution of the pacer's schedule deficit at each release.",
		telemetry.LatencyBuckets, lbl...)
	r.pacerRateHist = s.reg.Histogram("cptserved_pacer_window_rate",
		"Distribution of achieved events/s over 1-second pacer windows.",
		telemetry.RateBuckets, lbl...)

	for id, ds := range r.decode {
		ds := ds
		dl := append([]telemetry.Label{telemetry.L("source", id)}, lbl...)
		if r.stepHists == nil {
			r.stepHists = make(map[string]*telemetry.Histogram, len(r.decode))
		}
		r.stepHists[id] = s.reg.Histogram("cptserved_decode_step_seconds",
			"Distribution of batched decode step wall time, per cptgpt source.",
			telemetry.LatencyBuckets, dl...)
		s.reg.CounterFunc("cptserved_decode_steps_total",
			"Batched decode steps executed by a cptgpt source.",
			func() int64 { return ds.Load().Steps }, dl...)
		s.reg.CounterFunc("cptserved_decode_slot_steps_total",
			"Occupied slot-steps across decode steps (utilization numerator).",
			func() int64 { return ds.Load().SlotSteps }, dl...)
		s.reg.CounterFunc("cptserved_decode_draft_proposed_total",
			"Draft tokens proposed by speculative decoding.",
			func() int64 { return ds.Load().DraftProposed }, dl...)
		s.reg.CounterFunc("cptserved_decode_draft_accepted_total",
			"Draft tokens accepted by the multi-token verifier.",
			func() int64 { return ds.Load().DraftAccepted }, dl...)
	}

	// A sink with live state (mcn, closed-loop replay) registers its own.
	if live, ok := r.sink.(scenario.LiveSink); ok {
		live.Publish(s.reg, lbl...)
	}
}

// lookup resolves a run id to its record.
func (s *Server) lookup(id string) (*run, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runs[id]
	return r, ok
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	infos := make([]RunInfo, 0, len(s.order))
	for _, id := range s.order {
		if r, ok := s.runs[id]; ok {
			infos = append(infos, r.info())
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"runs": infos})
}

func (s *Server) handleGet(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such run"))
		return
	}
	writeJSON(w, http.StatusOK, r.info())
}

func (s *Server) handleStats(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such run"))
		return
	}
	writeJSON(w, http.StatusOK, r.stats())
}

// handleStop cancels a run and waits (bounded by the request context) for
// its clean drain, then reports the final state.
func (s *Server) handleStop(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("no such run"))
		return
	}
	s.log.Infow("run stop requested", "run", r.begin.RunID)
	r.cancel()
	select {
	case <-r.done:
	case <-req.Context().Done():
		// Still draining: keep the journal — if the daemon dies before the
		// drain lands, the next startup should still see this run.
		writeJSON(w, http.StatusAccepted, r.info())
		return
	}
	// The operator discarded the run and the drain completed; its journal
	// must not resurrect it at the next startup, and its metric series
	// would only grow /metrics until eviction (GET /runs/{id} still answers).
	r.removeJournal()
	s.reg.Drop("run", r.begin.RunID)
	writeJSON(w, http.StatusOK, r.info())
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
