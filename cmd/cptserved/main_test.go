package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cptgpt/internal/runlog"
)

// buildDaemon compiles the cptserved binary for the crash tests.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cptserved")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freeAddr reserves an ephemeral port and releases it for the daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func waitHealthy(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon at %s never became healthy: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func postRun(t *testing.T, addr string, body map[string]any) string {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/runs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /runs = %d: %s", resp.StatusCode, out.Error)
	}
	return out.ID
}

func runState(t *testing.T, addr, id string) (state, errMsg string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.State, out.Error
}

func waitDone(t *testing.T, addr, id string, deadline time.Duration) {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		state, errMsg := runState(t, addr, id)
		switch state {
		case "done":
			return
		case "failed", "stopped":
			t.Fatalf("run %s ended %s (err %q), want done", id, state, errMsg)
		}
		if time.Now().After(end) {
			t.Fatalf("run %s stuck in state %s", id, state)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestCrashRecoveryEndToEnd is the real-crash equivalence test: a daemon
// is SIGKILLed mid-way through a paced jsonl run (no drain, torn tails
// and all), a fresh daemon process restarts with -recover=resume, and the
// finished output must be byte-identical to an uninterrupted run's.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	bin := buildDaemon(t)
	work := t.TempDir()
	jdir := filepath.Join(work, "journal")
	refOut := filepath.Join(work, "reference.jsonl")
	out := filepath.Join(work, "events.jsonl")
	addr := freeAddr(t)

	start := func() *exec.Cmd {
		cmd := exec.Command(bin,
			"-addr", addr, "-tmp", work,
			"-journal-dir", jdir, "-recover", "resume",
			"-ckpt-events", "100", "-ckpt-interval", "100ms",
			"-log-level", "warn")
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		return cmd
	}

	d1 := start()
	defer d1.Process.Kill()
	waitHealthy(t, addr)

	// The reference: the same scenario run unpaced to completion first.
	refID := postRun(t, addr, map[string]any{
		"scenario": "flash-crowd", "ues": 200, "sink": "jsonl", "out": refOut,
	})
	waitDone(t, addr, refID, 60*time.Second)

	// The victim: paced (3600s of trace over ~6s of wall clock) so the
	// kill lands mid-stream, after at least one durable checkpoint with a
	// sink cursor.
	victimID := postRun(t, addr, map[string]any{
		"scenario": "flash-crowd", "ues": 200, "compression": 600,
		"sink": "jsonl", "out": out,
	})
	jpath := filepath.Join(jdir, victimID+runlog.Ext)
	ckptDeadline := time.Now().Add(30 * time.Second)
	for {
		if st, err := runlog.Load(jpath); err == nil && st.Checkpoint != nil && st.Checkpoint.SinkBytes > 0 {
			break
		}
		if state, _ := runState(t, addr, victimID); state == "done" {
			t.Fatal("victim run finished before the kill; pace the scenario slower")
		}
		if time.Now().After(ckptDeadline) {
			t.Fatal("no durable checkpoint with a sink cursor appeared")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// SIGKILL: no drain, no flush, no BYE.
	if err := d1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	d1.Wait()

	d2 := start()
	defer func() {
		d2.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func() { d2.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			d2.Process.Kill()
		}
	}()
	waitHealthy(t, addr)
	waitDone(t, addr, victimID, 60*time.Second)

	ref, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		i := 0
		for i < len(got) && i < len(ref) && got[i] == ref[i] {
			i++
		}
		t.Fatalf("recovered output diverges from the uninterrupted reference at byte %d (len %d vs %d)",
			i, len(got), len(ref))
	}

	// The journal tells the recovery story: the run passed through the
	// recovering state and ended done.
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"state":"recovering"`)) {
		t.Fatal("journal never recorded the recovering state")
	}
	st, err := runlog.Load(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != runlog.StateDone {
		t.Fatalf("journal final state %q, want done", st.State)
	}
}

// TestDaemonFlagValidation pins the CLI-level knobs: the removed journal
// durability flags are unknown flags (exit 2), and a bad -recover mode
// fails fast at startup, not at crash time.
func TestDaemonFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	bin := buildDaemon(t)
	for _, args := range [][]string{
		{"-fsync", "always"},
		{"-fsync-interval", "1s"},
	} {
		cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 ||
			!strings.Contains(string(out), "flag provided but not defined") {
			t.Fatalf("daemon given %v: %v, want exit 2 for an unknown flag:\n%s", args, err, out)
		}
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-journal-dir", t.TempDir(), "-recover", "maybe")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("daemon accepted -recover maybe:\n%s", out)
	}
}

// TestLogLevels pins -log-level: the five levels are accepted in either
// case and filter the slog text lines the daemon writes to stderr; any
// other value exits 2 before the listener opens.
func TestLogLevels(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	bin := buildDaemon(t)
	const listening = `level=INFO msg="cptserved listening"`
	for _, tc := range []struct {
		level string
		check func(stderr string) bool
	}{
		{"debug", func(s string) bool { return strings.Contains(s, listening) }},
		{"info", func(s string) bool { return strings.Contains(s, listening) }},
		{"warn", func(s string) bool { return !strings.Contains(s, "level=INFO") }},
		{"error", func(s string) bool { return !strings.Contains(s, "level=INFO") && !strings.Contains(s, "level=WARN") }},
		{"off", func(s string) bool { return s == "" }},
	} {
		for _, level := range []string{tc.level, strings.ToUpper(tc.level)} {
			addr := freeAddr(t)
			var stderr bytes.Buffer
			cmd := exec.Command(bin, "-addr", addr, "-log-level", level)
			cmd.Stderr = &stderr
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			waitHealthy(t, addr)
			cmd.Process.Signal(os.Interrupt)
			if err := cmd.Wait(); err != nil {
				t.Fatalf("-log-level %s: daemon exit %v:\n%s", level, err, stderr.String())
			}
			if !tc.check(stderr.String()) {
				t.Fatalf("-log-level %s: unexpected stderr:\n%s", level, stderr.String())
			}
		}
	}

	addr := freeAddr(t)
	out, err := exec.Command(bin, "-addr", addr, "-log-level", "bogus").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 ||
		!strings.Contains(string(out), "debug|info|warn|error|off") {
		t.Fatalf("-log-level bogus: %v, want exit 2 naming the accepted levels:\n%s", err, out)
	}
	if c, err := net.Dial("tcp", addr); err == nil {
		c.Close()
		t.Fatalf("-log-level bogus: something listens on %s", addr)
	}
}
