package replaynet

import (
	"strings"
	"testing"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/faultnet"
)

// TestClosedLoopCrashResume pins the crash-recovery contract end to end: an
// incarnation that dies dirty (no BYE, checkpoint older than the server's
// applied state) is resumed by a second incarnation with the same session
// ID and ResumeFrom = the stale checkpoint, and the server still applies
// every event exactly once.
func TestClosedLoopCrashResume(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", events.Gen4G)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const (
		n       = 400
		session = 7001
	)

	// Incarnation 1: replay the first 120 events, then "crash" — the
	// source just ends and the driver drains. The final BYE is harmless:
	// the server keeps session state across disconnects either way.
	var live LiveStats
	opts1 := fastOpts(session)
	opts1.Live = &live
	st1, err := ReplayClosed(srv.Addr().String(), events.Gen4G, seqSource(120), opts1)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Server.Events != 120 {
		t.Fatalf("incarnation 1 applied %d, want 120", st1.Server.Events)
	}
	if got := live.AckedSeq.Load(); got != 120 {
		t.Fatalf("live AckedSeq = %d, want 120", got)
	}

	// Incarnation 2 resumes from a checkpoint *older* than the server's
	// applied state (a crash always loses the tail between the last
	// durable checkpoint and the server's truth): ResumeFrom=100, source
	// fast-forwarded to event index 100. The 20 events the server already
	// applied are skipped without sending.
	opts2 := fastOpts(session)
	opts2.ResumeFrom = 100
	var live2 LiveStats
	opts2.Live = &live2
	st2, err := ReplayClosed(srv.Addr().String(), events.Gen4G, seqSourceFrom(100, n), opts2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Server.Events != n {
		t.Fatalf("after resume the server applied %d events, want exactly %d (loss or duplication)", st2.Server.Events, n)
	}
	if st2.Server.Duplicates != 0 {
		t.Fatalf("resume produced %d duplicate applications", st2.Server.Duplicates)
	}
	// Incarnation 2 transmitted only the unapplied suffix.
	if st2.Sent != n-120 {
		t.Fatalf("incarnation 2 sent %d events, want %d", st2.Sent, n-120)
	}
	if got := live2.AckedSeq.Load(); got != n {
		t.Fatalf("resumed AckedSeq = %d, want %d (absolute across incarnations)", got, n)
	}
}

// TestClosedLoopCrashResumeUnderFaults reruns the crash-resume shape with
// fault injection on both sides: zero loss, zero duplication regardless of
// the reconnect/retransmit schedule the faults force.
func TestClosedLoopCrashResumeUnderFaults(t *testing.T) {
	cfg := faultnet.Config{Seed: 21, DropProb: 0.02, StallProb: 0.02, StallDur: 2 * time.Millisecond}
	scfg := faultnet.Config{Seed: 22, DropProb: 0.02, ResetProb: 0.005}
	srv, err := ListenAndServeOpts("127.0.0.1:0", events.Gen4G, ServerOpts{Fault: &scfg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const (
		n       = 300
		session = 7002
	)
	opts1 := fastOpts(session)
	opts1.maxReconnects = 50
	opts1.Dial = faultnet.Dialer(cfg)
	if _, err := ReplayClosed(srv.Addr().String(), events.Gen4G, seqSource(90), opts1); err != nil {
		t.Fatal(err)
	}

	opts2 := fastOpts(session)
	opts2.maxReconnects = 50
	opts2.Dial = faultnet.Dialer(faultnet.Config{Seed: 23, DropProb: 0.02, PartialProb: 0.01})
	opts2.ResumeFrom = 70 // stale checkpoint: 20 events already applied
	st, err := ReplayClosed(srv.Addr().String(), events.Gen4G, seqSourceFrom(70, n), opts2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.Events != n {
		t.Fatalf("server applied %d events, want exactly %d", st.Server.Events, n)
	}
}

// TestClosedLoopResumeSessionLost pins the fail-fast path: when the server
// has no session state (restart), a ResumeFrom replay must error out
// instead of silently double-applying from sequence 1.
func TestClosedLoopResumeSessionLost(t *testing.T) {
	srv, err := ListenAndServe("127.0.0.1:0", events.Gen4G)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	opts := fastOpts(7003) // fresh session: server will report applied=0
	opts.ResumeFrom = 50
	_, err = ReplayClosed(srv.Addr().String(), events.Gen4G, seqSourceFrom(50, 100), opts)
	if err == nil {
		t.Fatal("resume against a lost session did not fail")
	}
	if !strings.Contains(err.Error(), "session state lost") {
		t.Fatalf("error %q does not identify the lost session", err)
	}
}
