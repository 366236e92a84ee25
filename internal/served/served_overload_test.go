package served

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/faultnet"
	"cptgpt/internal/replaynet"
	"cptgpt/internal/runlog"
	"cptgpt/internal/scenario"
)

// soakFor stretches TestChaosSoak to a full chaos soak; the default is a
// quick smoke pass so ordinary `go test` still walks the harness. A full
// soak is `go test -race -run TestChaosSoak ./internal/served -soak 30s`:
// the package goes before -soak, or go test stops reading packages there
// and runs the root package, which has no such flag.
var soakFor = flag.Duration("soak", 0, "chaos soak duration (0 = 2s smoke pass)")

// blockRuns installs an executeTestHook that parks every run goroutine on
// the returned gate until the test closes it — the way these tests hold a
// run "active" while poking admission from the outside.
func blockRuns(t *testing.T) chan struct{} {
	t.Helper()
	gate := make(chan struct{})
	hook := func(*run) { <-gate }
	executeTestHook.Store(&hook)
	t.Cleanup(func() {
		executeTestHook.Store(nil)
		select {
		case <-gate:
		default:
			close(gate)
		}
	})
	return gate
}

// postRaw submits a StartRequest and returns the raw response — for
// asserting status codes and headers `do` hides.
func postRaw(t *testing.T, url string, req StartRequest) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/runs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestAdmissionReject walks the overload front door: with one run slot,
// the first submission is admitted and the second bounces with 429, a
// Retry-After and the exhausted budget named — and is never registered.
func TestAdmissionReject(t *testing.T) {
	gate := blockRuns(t)
	s, ts := newDurableServer(t, Options{MaxActiveRuns: 1})

	var a RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 50}, &a, http.StatusCreated)

	resp, body := postRaw(t, ts.URL, StartRequest{Scenario: "flash-crowd", UEs: 50})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submission = %d, want 429; body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("429 Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(body), AdmitActiveRuns) {
		t.Fatalf("429 body does not name the exhausted budget: %s", body)
	}
	var list struct {
		Runs []RunInfo `json:"runs"`
	}
	do(t, "GET", ts.URL+"/runs", nil, &list, http.StatusOK)
	if len(list.Runs) != 1 || list.Runs[0].ID != a.ID {
		t.Fatalf("a rejected submission was registered: %+v", list.Runs)
	}

	metrics := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"cptserved_admission_admitted_total 1",
		"cptserved_admission_rejected_total 1",
		"cptserved_runs_started_total 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	close(gate)
	if fa := waitState(t, ts.URL, a.ID); fa.State != StateDone {
		t.Fatalf("active run ended %s (err %q), want done", fa.State, fa.Error)
	}
	if got := s.admission.runs.Load(); got != 0 {
		t.Fatalf("admission ledger holds %d runs after the run finished", got)
	}
}

// TestTerminalStateIsLast pins the order a client relies on: by the time a
// run can be seen terminal, its admission budget is back in the ledger and
// its journal holds the terminal record. With one run slot, a client that
// polls each run to done and at once reads its journal and submits the next
// finds the record every time and is never refused.
func TestTerminalStateIsLast(t *testing.T) {
	jdir := t.TempDir()
	_, ts := newDurableServer(t, Options{MaxActiveRuns: 1, JournalDir: jdir})
	for i := 0; i < 4; i++ {
		resp, body := postRaw(t, ts.URL, StartRequest{Scenario: "flash-crowd", UEs: 30})
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submission %d, right after the previous run was seen done = %d; body: %s", i, resp.StatusCode, body)
		}
		var info RunInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		// Poll with next to no pause, so the first terminal answer is acted on
		// at once.
		deadline := time.Now().Add(60 * time.Second)
		for !terminal(info.State) {
			if time.Now().After(deadline) {
				t.Fatalf("run %s stuck in state %s", info.ID, info.State)
			}
			time.Sleep(100 * time.Microsecond)
			do(t, "GET", ts.URL+"/runs/"+info.ID, nil, &info, http.StatusOK)
		}
		if info.State != StateDone {
			t.Fatalf("run %s ended %s (err %q), want done", info.ID, info.State, info.Error)
		}
		st, err := runlog.Load(filepath.Join(jdir, info.ID+runlog.Ext))
		if err != nil {
			t.Fatal(err)
		}
		if st.State != runlog.StateDone {
			t.Fatalf("run %s seen done, but its journal reads state %q", info.ID, st.State)
		}
	}
}

// TestAdmissionUEBudget pins the -max-total-ues axis: a submission that
// fits alone but not beside an active run bounces with 429 even though run
// slots are free, while one bigger than the whole budget — which no wait
// could ever admit — is a 400 naming the limit, and leaves the daemon
// healthy.
func TestAdmissionUEBudget(t *testing.T) {
	gate := blockRuns(t)
	_, ts := newDurableServer(t, Options{MaxTotalUEs: 100})

	resp, body := postRaw(t, ts.URL, StartRequest{Scenario: "flash-crowd", UEs: 300})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submission over the whole budget = %d, want 400; body: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), AdmitTotalUEs) || !strings.Contains(string(body), "100") {
		t.Fatalf("400 body does not name the UE limit: %s", body)
	}
	do(t, "GET", ts.URL+"/healthz", nil, nil, http.StatusOK)

	var active RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 80}, &active, http.StatusCreated)
	resp, body = postRaw(t, ts.URL, StartRequest{Scenario: "flash-crowd", UEs: 50})
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("submission over the remaining budget = %d (Retry-After %q), want 429 with one; body: %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if !strings.Contains(string(body), AdmitTotalUEs) {
		t.Fatalf("429 body does not name the UE budget: %s", body)
	}
	close(gate)
	waitState(t, ts.URL, active.ID)
	// The budget freed with the run: the same submission now flows.
	var ok RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 50}, &ok, http.StatusCreated)
	waitState(t, ts.URL, ok.ID)
}

// TestDeleteRecoveringRun pins the recovery/DELETE race: cancelling a run
// that is still in the "recovering" state must drain it cleanly to
// stopped, remove its journal, and leave nothing for the next startup to
// re-register.
func TestDeleteRecoveringRun(t *testing.T) {
	gate := blockRuns(t)
	dir := filepath.Join(t.TempDir(), "journals")
	craftCrashedJournal(t, dir, runlog.Begin{
		RunID: "run-7", Scenario: "flash-crowd",
		Spec: builtinJSON(t, "flash-crowd"),
		Sink: "count", UEs: 200, StartedAt: time.Now(),
	}, nil, nil)

	s, ts := newDurableServer(t, Options{JournalDir: dir})
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	var info RunInfo
	do(t, "GET", ts.URL+"/runs/run-7", nil, &info, http.StatusOK)
	if info.State != StateRecovering {
		t.Fatalf("resumed run state %q, want %q", info.State, StateRecovering)
	}

	// DELETE while the run goroutine is parked pre-execute. The handler
	// blocks until the drain, so it runs concurrently with the gate release
	// — but the gate only opens after the cancel has landed, so the run
	// must observe it and stop rather than complete.
	s.mu.Lock()
	r := s.runs["run-7"]
	s.mu.Unlock()
	delDone := make(chan RunInfo, 1)
	go func() {
		var di RunInfo
		do(t, "DELETE", ts.URL+"/runs/run-7", nil, &di, http.StatusOK)
		delDone <- di
	}()
	deadline := time.Now().Add(5 * time.Second)
	for r.runCtx.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("DELETE never cancelled the recovering run's context")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	di := <-delDone
	if di.State != StateStopped {
		t.Fatalf("deleted recovering run drained to %q, want %q", di.State, StateStopped)
	}

	// The journal went with the DELETE: a fresh daemon over the same
	// directory finds nothing to resume — the run does not resurrect.
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("journal dir not empty after DELETE drain: %v (err %v)", entries, err)
	}
	s2 := New(Options{TempDir: t.TempDir(), JournalDir: dir})
	if err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	var list struct {
		Runs []RunInfo `json:"runs"`
	}
	do(t, "GET", ts2.URL+"/runs", nil, &list, http.StatusOK)
	if len(list.Runs) != 0 {
		t.Fatalf("fresh recovery re-registered the deleted run: %+v", list.Runs)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// injectSinkFaults wires sinkWriterTestHook to wrap every sink file in
// wrap for the duration of the test.
func injectSinkFaults(t *testing.T, wrap func(runID string, w io.Writer) io.Writer) {
	t.Helper()
	sinkWriterTestHook.Store(&wrap)
	t.Cleanup(func() { sinkWriterTestHook.Store(nil) })
}

// TestBudgetExceededRuns pins the per-run budget axes end to end: each
// over-budget run fails with the typed reason in its error and the
// kind-labeled metric — while an unbudgeted sibling on the same daemon
// finishes with output byte-identical to an unloaded run's.
func TestBudgetExceededRuns(t *testing.T) {
	_, ts := newDurableServer(t, Options{})
	out := filepath.Join(t.TempDir(), "sibling.jsonl")
	var sibling RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{
		Scenario: "flash-crowd", UEs: 150, Sink: "jsonl", Out: out,
	}, &sibling, http.StatusCreated)

	cases := []struct {
		name    string
		req     StartRequest
		kind    string
		wantErr string
	}{
		{"events", StartRequest{Scenario: "flash-crowd", UEs: 100, MaxEvents: 7}, "events", "events"},
		{"spill_bytes", StartRequest{Scenario: "flash-crowd", UEs: 2000, MaxSpillBytes: 4096}, "spill_bytes", "spill_bytes"},
		{"wall_clock", StartRequest{Scenario: "flash-crowd", UEs: 100, Compression: 60, MaxWallSeconds: 0.3}, "wall_clock", "wall clock"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var info RunInfo
			do(t, "POST", ts.URL+"/runs", tc.req, &info, http.StatusCreated)
			final := waitState(t, ts.URL, info.ID)
			if final.State != StateFailed {
				t.Fatalf("over-budget run ended %s, want failed", final.State)
			}
			if !strings.Contains(final.Error, "budget exceeded") || !strings.Contains(final.Error, tc.wantErr) {
				t.Fatalf("failure not typed as a %s budget breach: %q", tc.kind, final.Error)
			}
			want := fmt.Sprintf(`cptserved_budget_exceeded_total{kind=%q} 1`, tc.kind)
			if m := scrapeMetrics(t, ts.URL); !strings.Contains(m, want) {
				t.Fatalf("metrics missing %q", want)
			}
		})
	}

	if fs := waitState(t, ts.URL, sibling.ID); fs.State != StateDone {
		t.Fatalf("sibling run ended %s (err %q), want done", fs.State, fs.Error)
	}
	ref, _ := renderReference(t, "flash-crowd", 150, "jsonl")
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("sibling output differs from an unloaded daemon's: %d bytes vs %d", len(got), len(ref))
	}
}

// TestWallBudgetDuringGeneration pins the generation-phase half of the
// wall-clock budget (TestBudgetExceededRuns breaches while streaming): a
// run held past its deadline before its stream opens fails with the same
// typed breach, still unwrapping to context.DeadlineExceeded, its Used
// counted from launch, and the kind-labeled counter rises by one.
func TestWallBudgetDuringGeneration(t *testing.T) {
	hold := func(*run) { time.Sleep(150 * time.Millisecond) }
	executeTestHook.Store(&hold)
	t.Cleanup(func() { executeTestHook.Store(nil) })
	s, ts := newDurableServer(t, Options{})
	var info RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 100, MaxWallSeconds: 0.05}, &info, http.StatusCreated)
	final := waitState(t, ts.URL, info.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "budget exceeded: wall clock") {
		t.Fatalf("run ended %s (err %q), want failed with a wall-clock breach", final.State, final.Error)
	}
	r, _ := s.lookup(info.ID)
	r.mu.Lock()
	err, streamed := r.err, !r.streamAt.IsZero()
	r.mu.Unlock()
	be, ok := scenario.AsBudgetExceeded(err)
	if !ok || be.Kind != scenario.BudgetWallClock || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a wall_clock BudgetExceededError wrapping context.DeadlineExceeded", err)
	}
	if streamed || be.Used < int64(150*time.Millisecond) || be.Limit != int64(50*time.Millisecond) {
		t.Fatalf("streamed=%v used %v of %v; want a generation-phase breach counted from launch",
			streamed, time.Duration(be.Used), time.Duration(be.Limit))
	}
	if m := scrapeMetrics(t, ts.URL); !strings.Contains(m, `cptserved_budget_exceeded_total{kind="wall_clock"} 1`) {
		t.Fatal("wall-clock breach not counted")
	}
}

// TestHealthzDegraded pins the readiness contract: an active run whose
// journal fell back to memory-only flips GET /healthz to 503 with the
// reason, and it flips back to 200 once that run is terminal. The journal
// file is pre-placed as a symlink to /dev/full (runlog.Create opens
// without O_EXCL), so its first write fails with ENOSPC.
func TestHealthzDegraded(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "run-1"+runlog.Ext)); err != nil {
		t.Fatal(err)
	}
	gate := blockRuns(t)
	_, ts := newDurableServer(t, Options{JournalDir: dir})
	do(t, "GET", ts.URL+"/healthz", nil, nil, http.StatusOK)

	var a RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 50}, &a, http.StatusCreated)

	var health struct {
		OK      bool     `json:"ok"`
		State   string   `json:"state"`
		Reasons []string `json:"reasons"`
	}
	do(t, "GET", ts.URL+"/healthz", nil, &health, http.StatusServiceUnavailable)
	if health.OK || health.State != "degraded" || len(health.Reasons) != 1 || health.Reasons[0] != "journal_degraded" {
		t.Fatalf("degraded healthz body: %+v", health)
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), "cptserved_healthz_state 0") {
		t.Fatal("cptserved_healthz_state gauge not 0 while degraded")
	}

	close(gate)
	if fa := waitState(t, ts.URL, a.ID); fa.State != StateDone {
		t.Fatalf("run with a degraded journal ended %s (err %q), want done", fa.State, fa.Error)
	}
	do(t, "GET", ts.URL+"/healthz", nil, &health, http.StatusOK)
	if !health.OK || health.State != "serving" {
		t.Fatalf("recovered healthz body: %+v", health)
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), "cptserved_healthz_state 1") {
		t.Fatal("cptserved_healthz_state gauge not 1 once the run is terminal")
	}
}

// chaosSink is the soak's misbehaving filesystem: roughly every 40th sink
// write fails with ENOSPC and every 15th stalls briefly, shared across
// every file-sink run in the daemon.
type chaosSink struct {
	w io.Writer
	n *atomic.Int64
}

func (c *chaosSink) Write(p []byte) (int, error) {
	n := c.n.Add(1)
	if n%40 == 0 {
		return 0, syscall.ENOSPC
	}
	if n%15 == 0 {
		time.Sleep(500 * time.Microsecond)
	}
	return c.w.Write(p)
}

// TestChaosSoak runs the daemon under sustained overload and injected
// faults — concurrent paced runs, a faultnet-wrapped replay backend,
// ENOSPC/slow-sink writes, over-budget submissions, admission churn and
// mid-flight cancels — then asserts the daemon came through whole: every
// run terminal, healthz serving, bounded heap, no leaked goroutines.
func TestChaosSoak(t *testing.T) {
	dur := *soakFor
	if dur == 0 {
		if testing.Short() {
			t.Skip("chaos soak skipped in -short mode")
		}
		dur = 2 * time.Second
	}

	before := goroutineBaseline()
	func() {
		var writes atomic.Int64
		injectSinkFaults(t, func(_ string, w io.Writer) io.Writer {
			return &chaosSink{w: w, n: &writes}
		})
		backend, err := replaynet.ListenAndServeOpts("127.0.0.1:0", events.Gen4G, replaynet.ServerOpts{
			Fault: &faultnet.Config{
				Seed: 11, DropProb: 0.01, StallProb: 0.02, StallDur: 2 * time.Millisecond,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer backend.Close()

		outDir := t.TempDir()
		s := New(Options{
			TempDir:          t.TempDir(),
			JournalDir:       filepath.Join(t.TempDir(), "journals"),
			MaxActiveRuns:    4,
			MaxTotalUEs:      5000,
			MaxSpillBytes:    256 << 20,
			CheckpointEvents: 256,
		})
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := s.Close(ctx); err != nil {
				t.Errorf("server close: %v", err)
			}
		}()

		variants := func(i int) StartRequest {
			switch i % 6 {
			case 0: // paced count run
				return StartRequest{Scenario: "flash-crowd", UEs: 200, Compression: 3600}
			case 1, 2: // file sink under the chaos writer: an ENOSPC fails the run
				return StartRequest{Scenario: "flash-crowd", UEs: 150, Sink: "jsonl",
					Out: filepath.Join(outDir, fmt.Sprintf("soak-%d.jsonl", i))}
			case 3: // over-budget: fails with a typed breach mid-soak
				return StartRequest{Scenario: "flash-crowd", UEs: 100, MaxEvents: 50}
			case 4: // closed-loop replay across the faulty network
				return StartRequest{Scenario: "flash-crowd", UEs: 100, Sink: "replay",
					Addr: backend.Addr().String(), ClosedLoop: true}
			default: // a second paced run, larger
				return StartRequest{Scenario: "flash-crowd", UEs: 150, Compression: 3600}
			}
		}

		var ids []string
		deadline := time.Now().Add(dur)
		for i := 0; time.Now().Before(deadline); i++ {
			resp, body := postRaw(t, ts.URL, variants(i))
			switch resp.StatusCode {
			case http.StatusCreated:
				var info RunInfo
				if err := json.Unmarshal(body, &info); err != nil {
					t.Fatalf("decode submit response: %v; body: %s", err, body)
				}
				ids = append(ids, info.ID)
			case http.StatusTooManyRequests:
				// Overload doing its job; back off like a client would.
				time.Sleep(20 * time.Millisecond)
			default:
				t.Fatalf("submission %d = %d; body: %s", i, resp.StatusCode, body)
			}
			// Mid-flight churn: cancel an occasional run, wherever it is in
			// its lifecycle (generating, streaming, done).
			if i%7 == 3 && len(ids) > 0 {
				req, _ := http.NewRequest("DELETE", ts.URL+"/runs/"+ids[len(ids)/2], nil)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}
			// The daemon must answer health probes throughout — degraded is
			// fine, unresponsive is not.
			hr, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatalf("healthz unresponsive mid-soak: %v", err)
			}
			hr.Body.Close()
			if hr.StatusCode != http.StatusOK && hr.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("healthz = %d mid-soak", hr.StatusCode)
			}
			time.Sleep(15 * time.Millisecond)
		}

		// Storm over: every submitted run must reach a terminal state — no
		// deadlocked drains.
		settle := time.Now().Add(120 * time.Second)
		for {
			var list struct {
				Runs []RunInfo `json:"runs"`
			}
			do(t, "GET", ts.URL+"/runs", nil, &list, http.StatusOK)
			pending := 0
			for _, r := range list.Runs {
				if !terminal(r.State) {
					pending++
				}
			}
			if pending == 0 {
				if len(list.Runs) == 0 {
					t.Fatal("soak submitted runs but the daemon lists none")
				}
				break
			}
			if time.Now().After(settle) {
				t.Fatalf("%d runs never reached a terminal state: %+v", pending, list.Runs)
			}
			time.Sleep(50 * time.Millisecond)
		}
		do(t, "GET", ts.URL+"/healthz", nil, nil, http.StatusOK)

		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > 768<<20 {
			t.Fatalf("heap not bounded after soak: %d bytes live", ms.HeapAlloc)
		}
	}()

	// Daemon and test server are down; settle shared HTTP goroutines
	// before comparing counts.
	settle := time.Now().Add(10 * time.Second)
	for time.Now().Before(settle) {
		http.DefaultClient.CloseIdleConnections()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before %d, after %d", before, runtime.NumGoroutine())
}
