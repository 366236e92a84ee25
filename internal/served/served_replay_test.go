package served

import (
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/replaynet"
)

// replayBackend starts an in-process replaynet server for the daemon to
// drive.
func replayBackend(t *testing.T, opts replaynet.ServerOpts) *replaynet.Server {
	t.Helper()
	srv, err := replaynet.ListenAndServeOpts("127.0.0.1:0", events.Gen4G, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// unreachableAddr returns a TCP address that refuses connections (a
// just-closed listener's port).
func unreachableAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestDaemonReplaySinkValidation(t *testing.T) {
	_, ts := newTestServer(t)

	// Missing addr.
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 100, Sink: "replay"},
		nil, http.StatusBadRequest)
	// Unreachable addr.
	do(t, "POST", ts.URL+"/runs", StartRequest{
		Scenario: "flash-crowd", UEs: 100, Sink: "replay", Addr: unreachableAddr(t),
	}, nil, http.StatusBadRequest)
	// closed_loop and addr are replay-only knobs.
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 100, ClosedLoop: true},
		nil, http.StatusBadRequest)
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 100, Addr: "127.0.0.1:9"},
		nil, http.StatusBadRequest)
	// The reachability probe is the last check: a request also wrong for a
	// reason that needs no network is refused for that reason, without the
	// address being dialed (so in well under the dial timeout).
	var refusal map[string]string
	t0 := time.Now()
	do(t, "POST", ts.URL+"/runs", StartRequest{
		Scenario: "flash-crowd", UEs: 100, Sink: "replay", Addr: unreachableAddr(t), Out: "/tmp/replay.jsonl",
	}, &refusal, http.StatusBadRequest)
	if !strings.Contains(refusal["error"], "takes no out path") || strings.Contains(refusal["error"], "unreachable") {
		t.Fatalf("out on replay + unreachable addr refused with %q, want the out-path error", refusal["error"])
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("refusal took %v: validation waited on the network", d)
	}
}

// TestDaemonReplaySinkClosedLoop runs a closed-loop replay through the
// daemon: the run must complete, report transport accounting, expose a
// replay stats block and the cptserved_replay_* series.
func TestDaemonReplaySinkClosedLoop(t *testing.T) {
	backend := replayBackend(t, replaynet.ServerOpts{})
	_, ts := newTestServer(t)

	var info RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{
		Scenario: "flash-crowd", UEs: 200, Sink: "replay",
		Addr: backend.Addr().String(), ClosedLoop: true,
	}, &info, http.StatusCreated)
	final := waitState(t, ts.URL, info.ID)
	if final.State != StateDone {
		t.Fatalf("run ended %s (err %q), want done", final.State, final.Error)
	}
	sent, _ := final.Result["sent"].(float64)
	acked, _ := final.Result["acked"].(float64)
	if sent <= 0 || acked != sent {
		t.Fatalf("transport result sent=%v acked=%v", sent, acked)
	}
	if got := backend.Snapshot().Events; got != int(acked) {
		t.Fatalf("backend applied %d events, driver acked %v", got, acked)
	}

	var stats RunStats
	do(t, "GET", ts.URL+"/runs/"+info.ID+"/stats", nil, &stats, http.StatusOK)
	if stats.Replay == nil {
		t.Fatal("stats missing replay block")
	}
	if stats.Replay.Acked != int64(acked) || stats.Replay.Cwnd < 2 {
		t.Fatalf("replay stats: %+v", stats.Replay)
	}
	if stats.Replay.SRTTMs <= 0 || stats.Replay.RTOMs <= 0 {
		t.Fatalf("estimator never published: %+v", stats.Replay)
	}

	body := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"cptserved_replay_cwnd{",
		"cptserved_replay_srtt_seconds{",
		"cptserved_replay_rto_seconds{",
		"cptserved_replay_retx_total{",
		"cptserved_replay_inflight{",
		"cptserved_replay_reconnects_total{",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}
}

// TestDaemonReplayDeleteDrains stops a paced replay run and checks the
// clean-drain contract: the run ends stopped (not failed), with a partial
// but consistent result, and the backend session ends on a frame boundary
// (its stats handshake succeeded).
func TestDaemonReplayDeleteDrains(t *testing.T) {
	backend := replayBackend(t, replaynet.ServerOpts{})
	_, ts := newTestServer(t)

	var info RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{
		Scenario: "flash-crowd", UEs: 300, Compression: 60,
		Sink: "replay", Addr: backend.Addr().String(), ClosedLoop: true,
	}, &info, http.StatusCreated)

	// Wait until it streams, then stop it.
	deadline := time.Now().Add(60 * time.Second)
	for {
		var st RunStats
		do(t, "GET", ts.URL+"/runs/"+info.ID+"/stats", nil, &st, http.StatusOK)
		if st.State == StateStreaming && st.Replay != nil && st.Replay.Acked > 0 {
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

	var stopped RunInfo
	do(t, "DELETE", ts.URL+"/runs/"+info.ID, nil, &stopped, http.StatusOK)
	if stopped.State != StateStopped {
		t.Fatalf("after DELETE state=%s err=%q, want stopped", stopped.State, stopped.Error)
	}
	// The drain completed the final stats handshake: the result carries the
	// server's accounting, consistent with the backend's own snapshot.
	acked, ok := stopped.Result["acked"].(float64)
	if !ok || acked <= 0 {
		t.Fatalf("stopped run result: %+v", stopped.Result)
	}
	if got := backend.Snapshot().Events; got != int(acked) {
		t.Fatalf("backend applied %d, driver acked %v — drain lost or duplicated events", got, acked)
	}
}
