package served

import (
	"bytes"
	"context"
	"encoding/csv"
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
// quick smoke pass so ordinary `go test` still walks the harness. CI runs
// `go test -race -run TestChaosSoak -soak 30s ./internal/served`.
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

// TestAdmissionQueueAndReject walks the overload front door: with one run
// slot and a one-deep queue, the first submission is admitted, the second
// parks in the queue (202, state "queued"), the third bounces with 429 and
// a Retry-After — and once the active run finishes, the queue pumps the
// parked run to completion.
func TestAdmissionQueueAndReject(t *testing.T) {
	gate := blockRuns(t)
	s, ts := newDurableServer(t, Options{MaxActiveRuns: 1, QueueDepth: 1})

	var a RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 50}, &a, http.StatusCreated)

	resp, body := postRaw(t, ts.URL, StartRequest{Scenario: "flash-crowd", UEs: 50})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submission = %d, want 202; body: %s", resp.StatusCode, body)
	}
	var b RunInfo
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	if b.State != StateQueued {
		t.Fatalf("second submission state %q, want %q", b.State, StateQueued)
	}

	resp, body = postRaw(t, ts.URL, StartRequest{Scenario: "flash-crowd", UEs: 50})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submission = %d, want 429; body: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	if !strings.Contains(string(body), AdmitActiveRuns) {
		t.Fatalf("429 body does not name the exhausted budget: %s", body)
	}

	// The queued run is inspectable like any other registered run.
	var qi RunInfo
	do(t, "GET", ts.URL+"/runs/"+b.ID, nil, &qi, http.StatusOK)
	if qi.State != StateQueued {
		t.Fatalf("queued run state %q, want %q", qi.State, StateQueued)
	}

	metrics := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"cptserved_admission_admitted_total 1",
		"cptserved_admission_queued_total 1",
		"cptserved_admission_rejected_total 1",
		"cptserved_admission_queue_depth 1",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics)
		}
	}

	close(gate)
	if fa := waitState(t, ts.URL, a.ID); fa.State != StateDone {
		t.Fatalf("active run ended %s (err %q), want done", fa.State, fa.Error)
	}
	if fb := waitState(t, ts.URL, b.ID); fb.State != StateDone {
		t.Fatalf("queued run ended %s (err %q), want done", fb.State, fb.Error)
	}
	if got := s.admission.runs.Load(); got != 0 {
		t.Fatalf("admission ledger holds %d runs after both finished", got)
	}
	metrics = scrapeMetrics(t, ts.URL)
	if !strings.Contains(metrics, "cptserved_admission_admitted_total 2") {
		t.Fatalf("queued run was never counted admitted:\n%s", metrics)
	}
}

// TestAdmissionUEBudget pins the -max-total-ues axis: a submission whose
// UE population would overrun the daemon budget bounces even though run
// slots are free.
func TestAdmissionUEBudget(t *testing.T) {
	_, ts := newDurableServer(t, Options{MaxTotalUEs: 100})
	resp, body := postRaw(t, ts.URL, StartRequest{Scenario: "flash-crowd", UEs: 300})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized submission = %d, want 429; body: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), AdmitTotalUEs) {
		t.Fatalf("429 body does not name the UE budget: %s", body)
	}
	// Within budget still flows.
	var ok RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 80}, &ok, http.StatusCreated)
	waitState(t, ts.URL, ok.ID)
}

// TestDeleteQueuedRun pins DELETE on a still-queued run: it leaves the
// queue immediately, finishes as stopped without ever launching, and the
// freed slot does not wedge the queue.
func TestDeleteQueuedRun(t *testing.T) {
	gate := blockRuns(t)
	_, ts := newDurableServer(t, Options{MaxActiveRuns: 1, QueueDepth: 2})

	var a, b, c RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 50}, &a, http.StatusCreated)
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 50}, &b, http.StatusAccepted)
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 50}, &c, http.StatusAccepted)

	var del RunInfo
	do(t, "DELETE", ts.URL+"/runs/"+b.ID, nil, &del, http.StatusOK)
	if del.State != StateStopped {
		t.Fatalf("deleted queued run state %q, want %q", del.State, StateStopped)
	}
	if m := scrapeMetrics(t, ts.URL); strings.Contains(m, `run="`+b.ID+`"`) {
		t.Fatalf("deleted queued run %s kept its metric series", b.ID)
	}

	close(gate)
	if fa := waitState(t, ts.URL, a.ID); fa.State != StateDone {
		t.Fatalf("active run ended %s, want done", fa.State)
	}
	// c sat behind the cancelled b and must still be admitted.
	if fc := waitState(t, ts.URL, c.ID); fc.State != StateDone {
		t.Fatalf("run queued behind the cancelled one ended %s (err %q), want done", fc.State, fc.Error)
	}
	var again RunInfo
	do(t, "GET", ts.URL+"/runs/"+b.ID, nil, &again, http.StatusOK)
	if again.State != StateStopped {
		t.Fatalf("cancelled queued run resurrected as %q", again.State)
	}
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

// enospcWriter fails its first failN writes with ENOSPC, then writes
// through. The Write-call granularity matches the breaker's failure
// counting, so tests can script exact trip sequences.
type enospcWriter struct {
	w     io.Writer
	failN int64
	fails atomic.Int64
}

func (e *enospcWriter) Write(p []byte) (int, error) {
	if e.fails.Add(1) <= e.failN {
		return 0, syscall.ENOSPC
	}
	return e.w.Write(p)
}

// injectSinkFaults wires sinkWriterTestHook to wrap every sink file in
// wrap for the duration of the test.
func injectSinkFaults(t *testing.T, wrap func(runID string, w io.Writer) io.Writer) {
	t.Helper()
	sinkWriterTestHook.Store(&wrap)
	t.Cleanup(func() { sinkWriterTestHook.Store(nil) })
}

// TestBreakerDrop drives a jsonl run with degrade "drop" into a sink that
// hard-fails its first writes: the breaker trips, the run keeps draining
// with counted lossy output, and still finishes done.
func TestBreakerDrop(t *testing.T) {
	injectSinkFaults(t, func(_ string, w io.Writer) io.Writer {
		return &enospcWriter{w: w, failN: 3}
	})
	_, ts := newDurableServer(t, Options{})
	out := filepath.Join(t.TempDir(), "out.jsonl")
	var info RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{
		Scenario: "flash-crowd", UEs: 150, Sink: "jsonl", Out: out, Degrade: "drop",
	}, &info, http.StatusCreated)
	final := waitState(t, ts.URL, info.ID)
	if final.State != StateDone {
		t.Fatalf("drop-degrade run ended %s (err %q), want done", final.State, final.Error)
	}
	dropped, _ := final.Result["dropped"].(float64)
	if dropped < 3 {
		t.Fatalf("drop-degrade run reports %v dropped writes, want ≥ 3", final.Result["dropped"])
	}
	var stats RunStats
	do(t, "GET", ts.URL+"/runs/"+info.ID+"/stats", nil, &stats, http.StatusOK)
	if stats.SinkDropped != int64(dropped) {
		t.Fatalf("stats sink_dropped %d != result dropped %v", stats.SinkDropped, dropped)
	}
	// Lossy by design: the file lost the dropped writes.
	ref, _ := renderReference(t, "flash-crowd", 150, "jsonl")
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(ref) {
		t.Fatalf("drop-degrade output not lossy: %d bytes vs %d reference", len(got), len(ref))
	}
	checkLossyFile(t, "jsonl", got, ref, int64(dropped))
	if !strings.Contains(scrapeMetrics(t, ts.URL), "cptserved_breaker_state") {
		t.Fatal("metrics missing cptserved_breaker_state for a degrade-enabled run")
	}

	// A sink that fails every other write never trips the breaker, so kept
	// and discarded writes alternate through the whole file: what is lost
	// is whole events, in both formats, and dropped counts them.
	for _, format := range []string{"jsonl", "csv"} {
		injectSinkFaults(t, func(_ string, w io.Writer) io.Writer { return &flipWriter{w: w} })
		out := filepath.Join(t.TempDir(), "out."+format)
		do(t, "POST", ts.URL+"/runs", StartRequest{
			Scenario: "flash-crowd", UEs: 150, Sink: format, Out: out, Degrade: "drop",
		}, &info, http.StatusCreated)
		if final = waitState(t, ts.URL, info.ID); final.State != StateDone {
			t.Fatalf("%s drop-degrade run ended %s (err %q), want done", format, final.State, final.Error)
		}
		ref, _ := renderReference(t, "flash-crowd", 150, format)
		if got, err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
		dropped, _ := final.Result["dropped"].(float64)
		if dropped == 0 || len(got) == 0 {
			t.Fatalf("%s: dropped %v, kept %d bytes: want some of each", format, dropped, len(got))
		}
		checkLossyFile(t, format, got, ref, int64(dropped))
	}
}

// flipWriter hard-fails every other write, beginning with the first.
type flipWriter struct {
	w     io.Writer
	calls int
}

func (f *flipWriter) Write(p []byte) (int, error) {
	if f.calls++; f.calls%2 == 1 {
		return 0, syscall.ENOSPC
	}
	return f.w.Write(p)
}

// checkLossyFile holds a drop-degraded file to its contract: every line is
// a whole line of the lossless reference, in order — each jsonl line
// parses as JSON and each csv row has four fields — and dropped is exactly
// the number of lines missing.
func checkLossyFile(t *testing.T, format string, got, ref []byte, dropped int64) {
	t.Helper()
	if len(got) > 0 && got[len(got)-1] != '\n' {
		t.Fatalf("%s: lossy file ends mid-line: %q", format, got[max(0, len(got)-80):])
	}
	if format == "csv" {
		cr := csv.NewReader(bytes.NewReader(got))
		cr.FieldsPerRecord = 4
		if _, err := cr.ReadAll(); err != nil {
			t.Fatalf("csv: lossy file has a broken row: %v", err)
		}
	}
	refLines := bytes.SplitAfter(ref, []byte{'\n'})
	at := 0
	for i, line := range bytes.SplitAfter(got, []byte{'\n'}) {
		if len(line) == 0 {
			continue // after the final newline
		}
		if format == "jsonl" && !json.Valid(line) {
			t.Fatalf("jsonl: line %d of the lossy file is not JSON: %q", i, line)
		}
		for at < len(refLines) && !bytes.Equal(refLines[at], line) {
			at++
		}
		if at == len(refLines) {
			t.Fatalf("%s: line %d of the lossy file is not a line of the reference (or out of order): %q", format, i, line)
		}
		at++
	}
	if missing := int64(bytes.Count(ref, []byte{'\n'}) - bytes.Count(got, []byte{'\n'})); missing != dropped {
		t.Fatalf("%s: %d lines missing from the lossy file, run reports %d dropped", format, missing, dropped)
	}
}

// TestBreakerPause drives the same faulty sink under degrade "pause": the
// breaker blocks the drain through the cooldown instead of shedding data,
// so the finished file is byte-identical to an unfaulted run's.
func TestBreakerPause(t *testing.T) {
	injectSinkFaults(t, func(_ string, w io.Writer) io.Writer {
		return &enospcWriter{w: w, failN: 3}
	})
	_, ts := newDurableServer(t, Options{})
	out := filepath.Join(t.TempDir(), "out.jsonl")
	var info RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{
		Scenario: "flash-crowd", UEs: 150, Sink: "jsonl", Out: out, Degrade: "pause",
	}, &info, http.StatusCreated)
	final := waitState(t, ts.URL, info.ID)
	if final.State != StateDone {
		t.Fatalf("pause-degrade run ended %s (err %q), want done", final.State, final.Error)
	}
	if _, lossy := final.Result["dropped"]; lossy {
		t.Fatalf("pause-degrade run dropped data: %+v", final.Result)
	}
	ref, _ := renderReference(t, "flash-crowd", 150, "jsonl")
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("pause-degrade output differs from reference: %d bytes vs %d", len(got), len(ref))
	}
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

// TestHealthzDegraded pins the readiness contract: a full admission queue
// flips GET /healthz to 503 with the reason, and back to 200 once the
// pressure clears.
func TestHealthzDegraded(t *testing.T) {
	gate := blockRuns(t)
	_, ts := newDurableServer(t, Options{MaxActiveRuns: 1, QueueDepth: 1})
	do(t, "GET", ts.URL+"/healthz", nil, nil, http.StatusOK)

	var a, b RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 50}, &a, http.StatusCreated)
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 50}, &b, http.StatusAccepted)

	var health struct {
		OK      bool     `json:"ok"`
		State   string   `json:"state"`
		Reasons []string `json:"reasons"`
	}
	do(t, "GET", ts.URL+"/healthz", nil, &health, http.StatusServiceUnavailable)
	if health.OK || health.State != "degraded" {
		t.Fatalf("degraded healthz body: %+v", health)
	}
	found := false
	for _, r := range health.Reasons {
		found = found || r == "admission_queue_full"
	}
	if !found {
		t.Fatalf("healthz reasons %v missing admission_queue_full", health.Reasons)
	}
	if !strings.Contains(scrapeMetrics(t, ts.URL), "cptserved_healthz_state 0") {
		t.Fatal("cptserved_healthz_state gauge not 0 while degraded")
	}

	close(gate)
	waitState(t, ts.URL, a.ID)
	waitState(t, ts.URL, b.ID)
	do(t, "GET", ts.URL+"/healthz", nil, &health, http.StatusOK)
	if !health.OK || health.State != "serving" {
		t.Fatalf("recovered healthz body: %+v", health)
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
			QueueDepth:       8,
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
			case 1: // lossy file sink under the chaos writer
				return StartRequest{Scenario: "flash-crowd", UEs: 150, Sink: "jsonl",
					Out: filepath.Join(outDir, fmt.Sprintf("soak-%d.jsonl", i)), Degrade: "drop"}
			case 2: // lossless file sink: the breaker pauses through the faults
				return StartRequest{Scenario: "flash-crowd", UEs: 100, Sink: "jsonl",
					Out: filepath.Join(outDir, fmt.Sprintf("soak-%d.jsonl", i)), Degrade: "pause"}
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
			case http.StatusCreated, http.StatusAccepted:
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
			// its lifecycle (queued, generating, streaming, done).
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
		// deadlocked drains, no runs stranded in the queue.
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
