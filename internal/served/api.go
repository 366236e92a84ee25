package served

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"cptgpt/internal/runlog"
	"cptgpt/internal/scenario"
	"cptgpt/internal/tracez"
)

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
		s.log.Info("run rejected by admission control", "scenario", r.begin.Scenario,
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
	s.log.Info("run started", "run", r.begin.RunID, "scenario", r.begin.Scenario,
		"sink", r.begin.Sink, "ues", r.begin.UEs, "compression", r.begin.Compression)

	s.launch(r)

	writeJSON(w, http.StatusCreated, r.info())
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
	s.log.Info("run stop requested", "run", r.begin.RunID)
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
