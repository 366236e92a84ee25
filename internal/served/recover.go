package served

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/mcn"
	"cptgpt/internal/replaynet"
	"cptgpt/internal/runlog"
	"cptgpt/internal/scenario"
	"cptgpt/internal/telemetry"
)

// Recover scans the journal directory and disposes of every run journal a
// previous daemon process left behind, according to Options.Recover:
// interrupted runs are resumed from their last checkpoint ("resume", the
// default), registered as failed casualties ("fail"), or discarded
// ("ignore"). Journals whose run already reached a terminal state are
// reaped; journals torn before their identity record are discarded with a
// warning. Call once at startup, after model preloads and before serving
// traffic.
func (s *Server) Recover() error {
	if s.opts.JournalDir == "" {
		return nil
	}
	mode := s.opts.Recover
	if mode == "" {
		mode = "resume"
	}
	switch mode {
	case "resume", "fail", "ignore":
	default:
		return fmt.Errorf("served: unknown recover mode %q (want resume, fail or ignore)", mode)
	}
	states, err := runlog.ScanDir(s.opts.JournalDir)
	if err != nil {
		return err
	}
	for _, st := range states {
		if st.Begin == nil {
			s.log.Warnw("discarding unrecoverable run journal", "path", st.Path)
			os.Remove(st.Path)
			continue
		}
		if st.Terminal() {
			// The run finished; its journal was only crash-recovery state.
			os.Remove(st.Path)
			continue
		}
		s.bumpSeq(st.Begin.RunID)
		switch mode {
		case "ignore":
			s.log.Infow("discarding interrupted run journal", "run", st.Begin.RunID, "path", st.Path)
			os.Remove(st.Path)
		case "fail":
			s.registerInterrupted(st, errors.New("served: run interrupted by daemon restart (recovery disabled)"))
		default:
			if err := s.resumeRun(st); errors.Is(err, errDupRun) {
				// The id is already live (a duplicate journal, or a resume
				// racing re-registration). Registering a failed casualty
				// would overwrite the live run, so just drop the orphan.
				s.log.Warnw("discarding duplicate run journal", "run", st.Begin.RunID, "path", st.Path)
				os.Remove(st.Path)
			} else if err != nil {
				s.registerInterrupted(st, fmt.Errorf("served: run interrupted and resume failed: %w", err))
			}
		}
	}
	return nil
}

// bumpSeq advances the run-id sequence past a recovered id so resumed and
// newly accepted runs never collide.
func (s *Server) bumpSeq(id string) {
	var n int
	if _, err := fmt.Sscanf(id, "run-%d", &n); err == nil {
		s.mu.Lock()
		if n > s.seq {
			s.seq = n
		}
		s.mu.Unlock()
	}
}

// registerInterrupted records an interrupted run as a failed entry in the
// registry — operators see the crash casualty in /runs instead of it
// silently vanishing — and appends the terminal state to its journal so
// the next startup reaps the file.
func (s *Server) registerInterrupted(st *runlog.RunState, cause error) {
	b := st.Begin
	done := make(chan struct{})
	close(done)
	r := &run{
		id: b.RunID, scenarioName: b.Scenario, sink: b.Sink,
		out: b.Out, addr: b.Addr, closedLoop: b.ClosedLoop,
		ues: b.UEs, compression: b.Compression,
		cancel: func() {}, done: done,
		state: StateFailed, startedAt: b.StartedAt, finishedAt: time.Now(),
		err:   cause,
		jpath: st.Path,
		log:   s.log,
	}
	if j, _, err := runlog.OpenResume(st.Path, s.journalOpts(b.RunID)); err == nil {
		j.AppendState(StateFailed, cause.Error())
		j.Close()
	}
	s.mu.Lock()
	if _, dup := s.runs[r.id]; dup {
		// The id is already registered (live or resumed): overwriting it
		// would orphan the live run's registry entry and duplicate its id
		// in the listing order. Keep the live run.
		s.mu.Unlock()
		s.log.Warnw("interrupted run already registered; keeping the live entry", "run", r.id)
		return
	}
	s.runs[r.id] = r
	s.order = append(s.order, r.id)
	s.mu.Unlock()
	s.registerRunMetrics(r)
	s.log.Warnw("interrupted run registered as failed", "run", r.id, "err", cause)
}

// errDupRun reports a resume colliding with an already-registered run id.
var errDupRun = errors.New("run id already registered")

// resumeRun rebuilds an interrupted run from its journal and relaunches
// it: the scenario regenerates deterministically and fast-forwards past
// the checkpointed merge key, the sink truncates to its durable cursor
// and appends, and the pacer re-anchors at the checkpointed trace offset.
func (s *Server) resumeRun(st *runlog.RunState) error {
	b := st.Begin
	spec := new(scenario.Spec)
	if err := json.Unmarshal(b.Spec, spec); err != nil {
		return fmt.Errorf("journaled spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("journaled spec: %w", err)
	}
	parallelism := b.Parallelism
	if parallelism == 0 {
		parallelism = s.opts.Parallelism
	}
	r := &run{
		id: b.RunID, scenarioName: b.Scenario, spec: spec,
		sink: b.Sink, out: b.Out, addr: b.Addr, closedLoop: b.ClosedLoop,
		ues: b.UEs, compression: b.Compression,
		done:         make(chan struct{}),
		decode:       make(map[string]*cptgpt.DecodeStats),
		state:        StateRecovering,
		startedAt:    b.StartedAt,
		sessionID:    b.SessionID,
		ckptEvery:    int64(s.opts.CheckpointEvents),
		ckptInterval: s.opts.CheckpointInterval,
		jpath:        st.Path,
		log:          s.log,
		resumeSkips:  s.resumeSkips,
		// The journaled resource envelope survives the crash: the resumed
		// incarnation runs under the budgets it was admitted with.
		degrade:    b.Degrade,
		shedAfter:  time.Duration(b.ShedAfterNanos),
		admitUEs:   admissionUEs(b.UEs, spec),
		recovered:  true,
		overBudget: s.overBudgetInc,
		budget: scenario.Budget{
			MaxSpillBytes: b.MaxSpillBytes,
			MaxEvents:     b.MaxEvents,
			MaxWall:       time.Duration(b.MaxWallNanos),
			SpillUsed:     &s.admission.spill,
		},
	}
	for _, src := range spec.Sources {
		if src.Kind == "cptgpt" {
			r.decode[src.ID] = &cptgpt.DecodeStats{}
		}
	}
	if r.sink == "mcn" {
		r.mcnLive = &mcn.LiveStats{}
	}
	if r.sink == "replay" && r.closedLoop {
		r.replayLive = &replaynet.LiveStats{}
	}
	r.opts = scenario.RunOpts{
		UEs:            b.UEs,
		Parallelism:    parallelism,
		BatchSize:      b.BatchSize,
		TempDir:        s.opts.TempDir,
		Precision:      b.Precision,
		Speculative:    b.Speculative,
		DraftTokens:    b.DraftTokens,
		Budget:         r.budget,
		LoadModel:      s.loadModel,
		SourceStats:    func(id string) *cptgpt.DecodeStats { return r.decode[id] },
		SourceStepHist: func(id string) *telemetry.Histogram { return r.stepHists[id] },
	}
	if c := s.resumePlan(st); c != nil {
		r.resume = c
		r.resumeKey = &scenario.Event{Time: c.Time, UE: c.UE, Seq: c.Seq}
		r.baseEvents = c.Events
		r.replayResumeFrom = uint64(c.ReplayApplied)
	}
	j, _, err := runlog.OpenResume(st.Path, s.journalOpts(r.id))
	if err != nil {
		return err
	}
	r.journal = j

	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.runCtx = ctx
	s.mu.Lock()
	if s.shuttingDown {
		s.mu.Unlock()
		cancel()
		j.Close()
		return errors.New("daemon is shutting down")
	}
	if _, dup := s.runs[r.id]; dup {
		s.mu.Unlock()
		cancel()
		j.Close()
		return fmt.Errorf("%w: %s", errDupRun, r.id)
	}
	s.runs[r.id] = r
	s.order = append(s.order, r.id)
	// Resumed runs reserve without an admission check: they were admitted
	// before the crash, and recovery must not strand them behind budget
	// freshly admitted runs now hold. A transient overshoot of the limits
	// is the accepted cost.
	s.admission.reserve(r.admitUEs)
	s.wg.Add(1)
	s.mu.Unlock()

	s.registerRunMetrics(r)
	j.AppendState(StateRecovering, "")
	if s.recoveries != nil {
		s.recoveries.Inc()
	}
	from := "scratch"
	if r.resume != nil {
		from = fmt.Sprintf("checkpoint at %d events", r.baseEvents)
	}
	s.log.Infow("resuming interrupted run", "run", r.id,
		"scenario", r.scenarioName, "sink", r.sink, "from", from)
	s.launch(r, ctx, cancel)
	return nil
}

// resumePlan decides whether the journal's checkpoint is actionable. For
// file sinks the checkpoint's durable prefix must still exist on disk; a
// missing or shortened sink file — or a gzip sink, whose byte cursors
// compression forecloses — falls back to a full from-scratch restart
// (still exactly-once: the work is redone, never double-counted). Nil
// means restart from the beginning.
func (s *Server) resumePlan(st *runlog.RunState) *runlog.Checkpoint {
	c := st.Checkpoint
	if c == nil {
		return nil
	}
	b := st.Begin
	switch b.Sink {
	case "jsonl", "csv":
		if strings.HasSuffix(b.Out, ".gz") || c.SinkBytes <= 0 {
			return nil
		}
		fi, err := os.Stat(b.Out)
		if err != nil || fi.Size() < c.SinkBytes {
			s.log.Warnw("sink file lost its durable prefix; restarting run from scratch",
				"run", b.RunID, "out", b.Out)
			return nil
		}
	}
	return c
}
