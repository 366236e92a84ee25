package served

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/scenario"
	"cptgpt/internal/tensor"
	"cptgpt/internal/tracez"
)

// newTestServer builds a daemon and an httptest front end. The caller gets
// a closer that drains runs and shuts the test server down.
func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{TempDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return s, ts
}

// tinyModelFile saves an untrained tiny CPT-GPT model for cptgpt-source
// runs — decoding works without training, the output is just near-uniform.
func tinyModelFile(t *testing.T) string {
	t.Helper()
	cfg := cptgpt.DefaultConfig()
	cfg.DModel = 16
	cfg.Heads = 2
	cfg.MLPHidden = 32
	cfg.HeadHidden = 16
	cfg.MaxLen = 40
	tk := cptgpt.Tokenizer{Gen: events.Gen4G, MinLog: 0, MaxLog: 5, LogScale: true}
	m, err := cptgpt.NewModel(cfg, tk)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.cptgpt")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// do sends a JSON request and decodes the JSON response into out (skipped
// when out is nil), failing on an unexpected status.
func do(t *testing.T, method, url string, body, out any, wantStatus int) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s = %d, want %d; body: %s", method, url, resp.StatusCode, wantStatus, buf.String())
	}
	if out != nil {
		if err := json.Unmarshal(buf.Bytes(), out); err != nil {
			t.Fatalf("decode %s %s response: %v; body: %s", method, url, err, buf.String())
		}
	}
}

// waitState polls a run until it reaches a terminal state.
func waitState(t *testing.T, url, id string) RunInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		var info RunInfo
		do(t, "GET", url+"/runs/"+id, nil, &info, http.StatusOK)
		if terminal(info.State) {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s stuck in state %s", id, info.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// goroutineBaseline is the goroutine count a leak check compares against.
// It first starts the one set of goroutines a run leaves behind by design —
// tensor's never-exiting kernel workers, spawned on the first parallel call
// (a synthetic source's) — so that a test run on its own, with no earlier
// run to have started them, does not count them against the daemon.
func goroutineBaseline() int {
	tensor.ParallelFor(tensor.Parallelism(), 1<<20, func(lo, hi int) {})
	return runtime.NumGoroutine()
}

// TestDaemonLifecycle walks the full story on a builtin scenario: start
// (unpaced, count sink) → completes → list/inspect/stats agree → metrics
// carry the run's series — and the daemon leaks no goroutines.
func TestDaemonLifecycle(t *testing.T) {
	before := goroutineBaseline()
	func() {
		s := New(Options{TempDir: t.TempDir()})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Close(ctx); err != nil {
				t.Errorf("server close: %v", err)
			}
		}()

		var info RunInfo
		do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 300}, &info, http.StatusCreated)
		if info.ID == "" || info.Scenario != "flash-crowd" || info.Sink != "count" {
			t.Fatalf("start response: %+v", info)
		}
		final := waitState(t, ts.URL, info.ID)
		if final.State != StateDone {
			t.Fatalf("run ended %s (err %q), want done", final.State, final.Error)
		}
		evs, ok := final.Result["events"].(float64)
		if !ok || evs <= 0 {
			t.Fatalf("done run result missing event count: %+v", final.Result)
		}

		var list struct {
			Runs []RunInfo `json:"runs"`
		}
		do(t, "GET", ts.URL+"/runs", nil, &list, http.StatusOK)
		if len(list.Runs) != 1 || list.Runs[0].ID != info.ID {
			t.Fatalf("list: %+v", list)
		}

		var stats RunStats
		do(t, "GET", ts.URL+"/runs/"+info.ID+"/stats", nil, &stats, http.StatusOK)
		if stats.Events != int64(evs) {
			t.Fatalf("stats events %d != result events %v", stats.Events, evs)
		}
		if stats.State != StateDone || stats.WallSeconds <= 0 || stats.EventsPerSec <= 0 {
			t.Fatalf("stats: %+v", stats)
		}

		body := scrapeMetrics(t, ts.URL)
		for _, want := range []string{
			"cptserved_uptime_seconds",
			"cptserved_runs_started_total 1",
			`cptserved_run_events_total{run="` + info.ID + `",scenario="flash-crowd"} ` + fmt.Sprint(int64(evs)),
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("metrics missing %q:\n%s", want, body)
			}
		}

		do(t, "GET", ts.URL+"/runs/nope", nil, nil, http.StatusNotFound)
		do(t, "GET", ts.URL+"/healthz", nil, nil, http.StatusOK)
	}()

	// The closure's Cleanup ran: daemon and test server are down. Shared
	// HTTP keep-alive goroutines are not the daemon's — close them — then
	// allow the runtime a settling window before comparing counts.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before %d, after %d", before, runtime.NumGoroutine())
}

// scrapeMetrics fetches /metrics and validates it line-by-line against the
// Prometheus text exposition grammar.
func scrapeMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? -?[0-9.eE+-]+(e[+-][0-9]+)?$`)
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("unparseable metrics line: %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestDaemonStopPacedRun starts a paced run that would take far longer
// than the test budget, stops it mid-stream, and checks the clean drain:
// state stopped, no error, and the jsonl sink's file intact line-by-line.
func TestDaemonStopPacedRun(t *testing.T) {
	_, ts := newTestServer(t)
	out := filepath.Join(t.TempDir(), "events.jsonl")

	// flash-crowd spans hours of trace time; at compression 60 the run
	// would take minutes. Stop it almost immediately.
	var info RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{
		Scenario: "flash-crowd", UEs: 300, Compression: 60,
		Sink: "jsonl", Out: out,
	}, &info, http.StatusCreated)

	// Let it get past generation and release at least one event.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st RunStats
		do(t, "GET", ts.URL+"/runs/"+info.ID+"/stats", nil, &st, http.StatusOK)
		if st.State == StateStreaming && st.Events > 0 {
			if st.Compression != 60 {
				t.Fatalf("stats compression = %v, want 60", st.Compression)
			}
			break
		}
		if terminal(st.State) {
			t.Fatalf("paced run ended early: %+v", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("run never started streaming")
		}
		time.Sleep(10 * time.Millisecond)
	}

	label := `run="` + info.ID + `"`
	if !strings.Contains(scrapeMetrics(t, ts.URL), label) {
		t.Fatalf("streaming run has no %s series", label)
	}
	var stopped RunInfo
	do(t, "DELETE", ts.URL+"/runs/"+info.ID, nil, &stopped, http.StatusOK)
	if stopped.State != StateStopped || stopped.Error != "" {
		t.Fatalf("stop: %+v", stopped)
	}
	evs, ok := stopped.Result["events"].(float64)
	if !ok || evs <= 0 {
		t.Fatalf("stopped run lost its partial result: %+v", stopped.Result)
	}
	// A completed DELETE discards the run's series; its record still answers.
	if m := scrapeMetrics(t, ts.URL); strings.Contains(m, label) {
		t.Fatalf("series carrying %s survive the DELETE", label)
	}
	do(t, "GET", ts.URL+"/runs/"+info.ID+"/stats", nil, nil, http.StatusOK)

	// Clean drain: every line of the sink file is complete, valid JSON,
	// and the count matches the run's released-event count.
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines := 0
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("truncated jsonl line %d: %v", lines+1, err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != int(evs) {
		t.Fatalf("sink file has %d lines, run reported %v events", lines, evs)
	}
}

// TestDaemonCPTGPTSourceStats runs an inline spec backed by a tiny model
// file and checks the decode telemetry: per-source steps/slot-steps in
// /stats, decode series in /metrics, and model-cache reuse across runs.
func TestDaemonCPTGPTSourceStats(t *testing.T) {
	s, ts := newTestServer(t)
	model := tinyModelFile(t)

	spec := &scenario.Spec{
		Name: "gpt-inline", Generation: "4G", Seed: 11, HorizonSec: 600, Population: 40,
		Sources: []scenario.SourceSpec{{ID: "gpt", Kind: "cptgpt", ModelFile: model, Share: 1}},
	}
	var info RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{Spec: spec, Sink: "count"}, &info, http.StatusCreated)
	final := waitState(t, ts.URL, info.ID)
	if final.State != StateDone {
		t.Fatalf("run ended %s (err %q)", final.State, final.Error)
	}

	var stats RunStats
	do(t, "GET", ts.URL+"/runs/"+info.ID+"/stats", nil, &stats, http.StatusOK)
	src, ok := stats.Sources["gpt"]
	if !ok {
		t.Fatalf("stats missing cptgpt source block: %+v", stats)
	}
	if src.Steps <= 0 || src.SlotSteps <= 0 {
		t.Fatalf("decode stats empty: %+v", src)
	}
	if src.SlotUtilization <= 0 || src.SlotUtilization > 1 {
		t.Fatalf("slot utilization out of range: %+v", src)
	}

	body := scrapeMetrics(t, ts.URL)
	if !strings.Contains(body, `cptserved_decode_steps_total{run="`+info.ID+`",scenario="gpt-inline",source="gpt"}`) {
		t.Fatalf("metrics missing decode series:\n%s", body)
	}
	if !strings.Contains(body, "cptserved_models_loaded 1") {
		t.Fatalf("model cache gauge wrong:\n%s", body)
	}

	// Second run against the same model file must reuse the cached model.
	do(t, "POST", ts.URL+"/runs", StartRequest{Spec: spec, Sink: "count"}, &info, http.StatusCreated)
	if final = waitState(t, ts.URL, info.ID); final.State != StateDone {
		t.Fatalf("second run ended %s (err %q)", final.State, final.Error)
	}
	s.mu.Lock()
	cached := len(s.models)
	s.mu.Unlock()
	if cached != 1 {
		t.Fatalf("model cache holds %d entries after two runs of one model, want 1", cached)
	}
}

// TestDaemonMCNSink drives the builtin scenario into the mcn sink and
// checks the latency telemetry lands in stats, metrics and the result.
func TestDaemonMCNSink(t *testing.T) {
	_, ts := newTestServer(t)

	var info RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 300, Sink: "mcn"}, &info, http.StatusCreated)
	final := waitState(t, ts.URL, info.ID)
	if final.State != StateDone {
		t.Fatalf("mcn run ended %s (err %q)", final.State, final.Error)
	}
	for _, k := range []string{"events", "latency_p95_ms", "latency_p99_ms", "max_instances"} {
		if _, ok := final.Result[k]; !ok {
			t.Fatalf("mcn result missing %q: %+v", k, final.Result)
		}
	}

	var stats RunStats
	do(t, "GET", ts.URL+"/runs/"+info.ID+"/stats", nil, &stats, http.StatusOK)
	if stats.MCN == nil || stats.MCN.Events <= 0 {
		t.Fatalf("stats missing live mcn block: %+v", stats)
	}
	if stats.MCN.P99Ms < stats.MCN.P95Ms {
		t.Fatalf("p99 %v < p95 %v", stats.MCN.P99Ms, stats.MCN.P95Ms)
	}

	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		`cptserved_mcn_events_total{run="` + info.ID + `"`,
		`cptserved_mcn_latency_seconds{run="` + info.ID + `",scenario="flash-crowd",stat="p99"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestDaemonValidation checks that malformed start requests fail fast with
// 400 and never create a run.
func TestDaemonValidation(t *testing.T) {
	_, ts := newTestServer(t)
	bad := []StartRequest{
		{},                             // neither scenario nor spec
		{Scenario: "no-such-scenario"}, // unknown builtin
		{Scenario: "flash-crowd", Spec: &scenario.Spec{}}, // both
		{Scenario: "flash-crowd", Sink: "tape"},           // unknown sink
		{Scenario: "flash-crowd", Sink: "jsonl"},          // file sink, no out
		{Scenario: "flash-crowd", Out: "x.jsonl"},         // out without file sink
		{Scenario: "flash-crowd", Speculative: "maybe"},   // bad speculative
		{Scenario: "flash-crowd", DraftTokens: -1},        // negative draft length
		{Scenario: "flash-crowd", Compression: -1},        // negative compression
		{Scenario: "flash-crowd", UEs: -5},                // negative population
	}
	for i, req := range bad {
		do(t, "POST", ts.URL+"/runs", req, nil, http.StatusBadRequest)
		_ = i
	}
	// Unknown JSON fields are rejected too (catches client typos), and so
	// are the retired load-shedding knob and run-wide precision override.
	for _, body := range []string{
		`{"scenario":"flash-crowd","compresion":10}`,
		`{"scenario":"flash-crowd","shed_after_lag_seconds":0.05}`,
		`{"scenario":"flash-crowd","precision":"f32"}`,
		`{"scenario":"flash-crowd","precision":"f64"}`,
	} {
		resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown field accepted (%d): %s", resp.StatusCode, body)
		}
	}

	var list struct {
		Runs []RunInfo `json:"runs"`
	}
	do(t, "GET", ts.URL+"/runs", nil, &list, http.StatusOK)
	if len(list.Runs) != 0 {
		t.Fatalf("rejected requests created runs: %+v", list.Runs)
	}
}

// TestDaemonRefusesBadSourceFields: a source field whose value would stop
// the run from opening is a 400 that names the field — not a 201 and a run
// that ends "failed". Spec.Validate parses every source with the code that
// binds it for a run (SourceSpec.parse), so the two cannot disagree; the
// same rows go through scenario.Load in TestLoadRefusesBadSourceFields.
func TestDaemonRefusesBadSourceFields(t *testing.T) {
	_, ts := newTestServer(t)
	spec := func(src scenario.SourceSpec) *scenario.Spec {
		src.ID, src.Share = "s", 1
		return &scenario.Spec{Name: "inline", Generation: "4G", Seed: 1, HorizonSec: 60, Population: 8,
			Sources: []scenario.SourceSpec{src}}
	}
	for _, c := range []struct {
		src   scenario.SourceSpec
		field string
	}{
		{scenario.SourceSpec{StartHour: 99}, "StartHour"},
		{scenario.SourceSpec{DeviceMix: map[string]float64{"phone": -1}}, "device_mix"},
		{scenario.SourceSpec{DeviceMix: map[string]float64{"phone": 0, "tablet": 0}}, "device_mix"},
		{scenario.SourceSpec{Kind: "cptgpt", ModelFile: "no-such-model.bin", Device: "toaster"}, "device"},
		{scenario.SourceSpec{Kind: "cptgpt", ModelFile: "no-such-model.bin", Precision: "f64"}, "float64 decode was removed"},
	} {
		var resp struct {
			Error string `json:"error"`
		}
		do(t, "POST", ts.URL+"/runs", StartRequest{Spec: spec(c.src)}, &resp, http.StatusBadRequest)
		if !strings.Contains(resp.Error, c.field) || !strings.Contains(resp.Error, `source "s"`) {
			t.Errorf("%+v: error %q does not name source and field %q", c.src, resp.Error, c.field)
		}
	}
	var list struct {
		Runs []RunInfo `json:"runs"`
	}
	do(t, "GET", ts.URL+"/runs", nil, &list, http.StatusOK)
	if len(list.Runs) != 0 {
		t.Fatalf("refused specs registered runs: %+v", list.Runs)
	}
	if body := scrapeMetrics(t, ts.URL); !strings.Contains(body, "cptserved_runs_started_total 0\n") {
		t.Fatal("refused specs counted as started runs")
	}
}

// TestDaemonConcurrentRuns exercises concurrent start/poll/stop traffic
// under the race detector.
func TestDaemonConcurrentRuns(t *testing.T) {
	_, ts := newTestServer(t)
	const n = 4
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var info RunInfo
			// Half paced-and-stopped, half unpaced-to-completion.
			reqBody := StartRequest{Scenario: "flash-crowd", UEs: 150}
			if i%2 == 0 {
				reqBody.Compression = 60
			}
			b, _ := json.Marshal(reqBody)
			resp, err := http.Post(ts.URL+"/runs", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			err = json.NewDecoder(resp.Body).Decode(&info)
			resp.Body.Close()
			if err != nil {
				errs <- err
				return
			}
			if i%2 == 0 {
				time.Sleep(50 * time.Millisecond)
				req, _ := http.NewRequest("DELETE", ts.URL+"/runs/"+info.ID, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
			}
			deadline := time.Now().Add(60 * time.Second)
			for {
				resp, err := http.Get(ts.URL + "/runs/" + info.ID)
				if err != nil {
					errs <- err
					return
				}
				var cur RunInfo
				err = json.NewDecoder(resp.Body).Decode(&cur)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if terminal(cur.State) {
					if cur.State == StateFailed {
						errs <- fmt.Errorf("run %s failed: %s", cur.ID, cur.Error)
					}
					return
				}
				if time.Now().After(deadline) {
					errs <- fmt.Errorf("run %s never finished", info.ID)
					return
				}
				// Scrape while runs churn: exercises the registry under race.
				http.Get(ts.URL + "/metrics")
				time.Sleep(10 * time.Millisecond)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestDaemonShutdownRejects checks that Close stops in-flight runs with a
// clean drain and that new runs are refused afterwards.
func TestDaemonShutdownRejects(t *testing.T) {
	s := New(Options{TempDir: t.TempDir()})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var info RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 300, Compression: 30}, &info, http.StatusCreated)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	var cur RunInfo
	do(t, "GET", ts.URL+"/runs/"+info.ID, nil, &cur, http.StatusOK)
	if cur.State != StateStopped && cur.State != StateDone {
		t.Fatalf("run state after shutdown = %s, want stopped or done", cur.State)
	}
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd"}, nil, http.StatusServiceUnavailable)
}

// TestDaemonEviction bounds the finished-run history and drops evicted
// runs' metric series.
func TestDaemonEviction(t *testing.T) {
	s := New(Options{TempDir: t.TempDir(), MaxFinishedRuns: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Close(ctx)
	}()

	var first RunInfo
	for i := 0; i < 3; i++ {
		var info RunInfo
		do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 150}, &info, http.StatusCreated)
		if i == 0 {
			first = info
		}
		waitState(t, ts.URL, info.ID)
	}
	var list struct {
		Runs []RunInfo `json:"runs"`
	}
	do(t, "GET", ts.URL+"/runs", nil, &list, http.StatusOK)
	if len(list.Runs) != 2 {
		t.Fatalf("retained %d runs, want 2", len(list.Runs))
	}
	do(t, "GET", ts.URL+"/runs/"+first.ID, nil, nil, http.StatusNotFound)
	if body := scrapeMetrics(t, ts.URL); strings.Contains(body, `run="`+first.ID+`"`) {
		t.Fatalf("evicted run's metric series survive:\n%s", body)
	}
}

// TestDaemonObservability drives a cptgpt-source run and an mcn run, then
// checks the PR-8 surfaces: /metrics carries native Prometheus histograms
// (cumulative _bucket/_sum/_count) for the pacer, decode and mcn
// distributions, and /debug/trace exposes flight-recorder spans covering
// the scenario pipeline, the batch decoder, the pacer and the run
// lifecycle.
func TestDaemonObservability(t *testing.T) {
	_, ts := newTestServer(t)
	model := tinyModelFile(t)

	spec := &scenario.Spec{
		Name: "gpt-obs", Generation: "4G", Seed: 7, HorizonSec: 600, Population: 40,
		Sources: []scenario.SourceSpec{{ID: "gpt", Kind: "cptgpt", ModelFile: model, Share: 1}},
	}
	var info RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{Spec: spec, Sink: "count"}, &info, http.StatusCreated)
	if final := waitState(t, ts.URL, info.ID); final.State != StateDone {
		t.Fatalf("cptgpt run ended %s (err %q)", final.State, final.Error)
	}
	var mcnInfo RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 200, Sink: "mcn"}, &mcnInfo, http.StatusCreated)
	if final := waitState(t, ts.URL, mcnInfo.ID); final.State != StateDone {
		t.Fatalf("mcn run ended %s (err %q)", final.State, final.Error)
	}

	body := scrapeMetrics(t, ts.URL)

	// Native histogram families present, each with the full bucket ladder.
	families := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z_]+)_bucket\{`).FindAllStringSubmatch(body, -1) {
		families[m[1]] = true
	}
	for _, want := range []string{
		"cptserved_pacer_lag_seconds",
		"cptserved_pacer_window_rate",
		"cptserved_decode_step_seconds",
		"cptserved_mcn_arrival_latency_seconds",
	} {
		if !families[want] {
			t.Fatalf("metrics missing histogram family %q (have %v)", want, families)
		}
	}
	if len(families) < 4 {
		t.Fatalf("only %d native histogram families, want >= 4", len(families))
	}

	// Observations actually land: decode steps, mcn latencies and pacer
	// windows all have nonzero _count, and every family's +Inf bucket
	// equals its _count.
	for series, lbl := range map[string]string{
		"cptserved_decode_step_seconds":         `{run="` + info.ID + `",scenario="gpt-obs",source="gpt"}`,
		"cptserved_pacer_window_rate":           `{run="` + info.ID + `",scenario="gpt-obs"}`,
		"cptserved_mcn_arrival_latency_seconds": `{run="` + mcnInfo.ID + `",scenario="flash-crowd"}`,
	} {
		countRe := regexp.MustCompile(regexp.QuoteMeta(series+"_count"+lbl) + ` (\d+)`)
		m := countRe.FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("metrics missing %s_count%s:\n%s", series, lbl, body)
		}
		if m[1] == "0" {
			t.Fatalf("%s%s has zero observations", series, lbl)
		}
		infLine := series + "_bucket" + lbl[:len(lbl)-1] + `,le="+Inf"} ` + m[1]
		if !strings.Contains(body, infLine) {
			t.Fatalf("metrics missing matching +Inf bucket %q", infLine)
		}
	}

	// The flight recorder covers every pipeline layer.
	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var trace struct {
		Enabled bool `json:"enabled"`
		Stages  []struct {
			Stage string `json:"stage"`
			Count int64  `json:"count"`
		} `json:"stages"`
		Spans []struct {
			Stage string `json:"stage"`
			Dur   int64  `json:"dur_nanos"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&trace); err != nil {
		t.Fatalf("decode /debug/trace: %v", err)
	}
	if !trace.Enabled {
		t.Fatal("daemon's flight recorder reports disabled")
	}
	if len(trace.Spans) == 0 {
		t.Fatal("/debug/trace has no spans")
	}
	have := map[string]int64{}
	for _, st := range trace.Stages {
		have[st.Stage] = st.Count
	}
	for _, want := range []string{
		"scenario.source", "scenario.spill", "scenario.merge", "scenario.sink",
		"decode.step", "pacer.window",
		"run.generate", "run.stream", "run.state",
	} {
		if have[want] == 0 {
			t.Fatalf("/debug/trace missing stage %q (have %v)", want, have)
		}
	}
	// Two runs, two streaming transitions + two terminal states minimum.
	if have["run.state"] < 4 {
		t.Fatalf("run.state count = %d, want >= 4", have["run.state"])
	}
}

// TestStreamSpanRecordedBeforeDone pins the ordering between a run's
// terminal state and its run.stream span: the span ends before finish
// publishes the state, so a /debug/trace read made the instant a run is
// observed done already holds that run's span (a harness that computes stage
// deltas around a run relies on it). The observer spins in-process on the
// run record and reads the span ring the moment the state flips, so a span
// recorded even microseconds late is missed; /debug/trace, served without a
// network hop right after, must show the same span.
func TestStreamSpanRecordedBeforeDone(t *testing.T) {
	s, ts := newTestServer(t)
	h := s.Handler()
	for i := 0; i < 8; i++ {
		var info RunInfo
		do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 60, Sink: "count"}, &info, http.StatusCreated)
		r, ok := s.lookup(info.ID)
		if !ok {
			t.Fatalf("run %s not registered", info.ID)
		}
		deadline := time.Now().Add(60 * time.Second)
		for !terminal(r.info().State) {
			if time.Now().After(deadline) {
				t.Fatalf("run %s stuck in state %s", info.ID, r.info().State)
			}
			runtime.Gosched()
		}
		// The ring first (what /debug/trace serves, read with no handler
		// set-up in between), then the endpoint itself.
		ringHas := false
		for _, sp := range tracez.Snapshot(0) {
			ringHas = ringHas || (sp.Stage == tracez.StageRunStream && sp.Run == info.ID)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?n=8192", nil))
		if st := r.info().State; st != StateDone {
			t.Fatalf("run %s ended %s", info.ID, st)
		}
		if !ringHas {
			t.Fatalf("run %s observed done before its run.stream span was recorded", info.ID)
		}
		var trace struct {
			Spans []struct {
				Stage string `json:"stage"`
				Run   string `json:"run"`
			} `json:"spans"`
		}
		if err := json.NewDecoder(rec.Body).Decode(&trace); err != nil {
			t.Fatalf("decode /debug/trace: %v", err)
		}
		found := false
		for _, sp := range trace.Spans {
			found = found || (sp.Stage == "run.stream" && sp.Run == info.ID)
		}
		if !found {
			t.Fatalf("run %s observed done, but /debug/trace has no run.stream span for it (%d spans)", info.ID, len(trace.Spans))
		}
	}
}

// TestDaemonPprofOptIn checks the profiler stays unmounted by default and
// mounts under /debug/pprof/ when Options.EnablePprof is set.
func TestDaemonPprofOptIn(t *testing.T) {
	s, ts := newTestServer(t)
	_ = s
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof mounted without opt-in: %d", resp.StatusCode)
	}

	sp := New(Options{TempDir: t.TempDir(), EnablePprof: true})
	tsp := httptest.NewServer(sp.Handler())
	defer tsp.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		sp.Close(ctx)
	}()
	resp, err = http.Get(tsp.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index = %d with EnablePprof", resp.StatusCode)
	}
}
