package served

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"cptgpt/internal/runlog"
	"cptgpt/internal/scenario"
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
			s.log.Warn("discarding unrecoverable run journal", "path", st.Path)
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
			s.log.Info("discarding interrupted run journal", "run", st.Begin.RunID, "path", st.Path)
			os.Remove(st.Path)
		case "fail":
			s.registerInterrupted(st, errors.New("served: run interrupted by daemon restart (recovery disabled)"))
		default:
			if err := s.resumeRun(st); errors.Is(err, errDupRun) {
				// The id is already live (a duplicate journal, or a resume
				// racing re-registration). Registering a failed casualty
				// would overwrite the live run, so just drop the orphan.
				s.log.Warn("discarding duplicate run journal", "run", st.Begin.RunID, "path", st.Path)
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
	r, _ := s.newRun(*st.Begin, nil, st) // no spec: identity only, cannot fail
	r.cancel()
	close(r.done)
	r.state, r.finishedAt, r.err = StateFailed, time.Now(), cause
	id := r.begin.RunID
	if j, _, err := runlog.OpenResume(st.Path, s.journalOpts(id)); err == nil {
		j.AppendState(StateFailed, cause.Error())
		j.Close()
	}
	s.mu.Lock()
	if _, dup := s.runs[id]; dup {
		// The id is already registered (live or resumed): overwriting it
		// would orphan the live run's registry entry and duplicate its id
		// in the listing order. Keep the live run.
		s.mu.Unlock()
		s.log.Warn("interrupted run already registered; keeping the live entry", "run", id)
		return
	}
	s.runs[id] = r
	s.order = append(s.order, id)
	s.mu.Unlock()
	s.registerRunMetrics(r)
	s.log.Warn("interrupted run registered as failed", "run", id, "err", cause)
}

// errDupRun reports a resume colliding with an already-registered run id.
var errDupRun = errors.New("run id already registered")

// resumeRun rebuilds an interrupted run from its journal and relaunches
// it: the scenario regenerates deterministically and fast-forwards past
// the checkpointed merge key, the sink continues from its journaled cursor
// (a file truncates to it and appends, closed-loop replay rejoins its
// session), and the pacer re-anchors at the checkpointed trace offset.
func (s *Server) resumeRun(st *runlog.RunState) error {
	spec := new(scenario.Spec)
	if err := json.Unmarshal(st.Begin.Spec, spec); err != nil {
		return fmt.Errorf("journaled spec: %w", err)
	}
	if err := float32Spec(spec, st.Begin.Precision); err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("journaled spec: %w", err)
	}
	r, err := s.newRun(*st.Begin, spec, st)
	if err != nil {
		return err
	}
	id := r.begin.RunID
	j, _, err := runlog.OpenResume(st.Path, s.journalOpts(id))
	if err != nil {
		r.cancel()
		return err
	}
	r.journal = j

	s.mu.Lock()
	if s.shuttingDown {
		s.mu.Unlock()
		r.cancel()
		j.Close()
		return errors.New("daemon is shutting down")
	}
	if _, dup := s.runs[id]; dup {
		s.mu.Unlock()
		r.cancel()
		j.Close()
		return fmt.Errorf("%w: %s", errDupRun, id)
	}
	s.runs[id] = r
	s.order = append(s.order, id)
	// Resumed runs reserve without an admission check: they were admitted
	// before the crash, and recovery must not strand them behind budget
	// freshly admitted runs now hold. A transient overshoot of the limits
	// is the accepted cost.
	r.release = s.admission.reserve(r.admitUEs)
	s.wg.Add(1)
	s.mu.Unlock()

	s.registerRunMetrics(r)
	j.AppendState(StateRecovering, "")
	if s.recoveries != nil {
		s.recoveries.Inc()
	}
	from := "scratch"
	if r.resume != nil {
		from = fmt.Sprintf("checkpoint at %d events", r.baseEvents())
	}
	s.log.Info("resuming interrupted run", "run", id,
		"scenario", r.begin.Scenario, "sink", r.begin.Sink, "from", from)
	s.launch(r)
	return nil
}

// float32Spec refuses a journaled run whose cptgpt sources decoded in
// float64: the run-wide override (begin) or else the source's own field
// said "f64", or neither was set, which meant float64 before float32 became
// the only decode. Its output cannot be continued in float32. A source that
// decoded in float32 has its field cleared, since the spec no longer
// accepts "f64" there even where an override outranked it.
func float32Spec(spec *scenario.Spec, begin string) error {
	for i := range spec.Sources {
		src := &spec.Sources[i]
		if src.Kind != "cptgpt" {
			continue
		}
		p := begin
		if p == "" {
			p = src.Precision
		}
		switch strings.ToLower(p) {
		case "", "f64", "float64":
			return fmt.Errorf("cptgpt source %q decoded in float64, which this daemon no longer has; its output cannot be continued", src.ID)
		}
		src.Precision = ""
	}
	return nil
}
