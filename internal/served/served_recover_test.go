package served

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/replaynet"
	"cptgpt/internal/runlog"
	"cptgpt/internal/scenario"
	"cptgpt/internal/trace"
)

// newDurableServer is newTestServer with caller-controlled Options —
// recovery tests need a journal directory and tight checkpoint cadences.
func newDurableServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.TempDir == "" {
		opts.TempDir = t.TempDir()
	}
	s := New(opts)
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

// renderReference produces the byte-exact sink file an uninterrupted run
// of the builtin would write, plus the event sequence behind it, via the
// same deterministic pipeline and line encoder the daemon uses.
func renderReference(t *testing.T, builtin string, ues int, format string) ([]byte, []scenario.Event) {
	t.Helper()
	spec, err := scenario.Builtin(builtin)
	if err != nil {
		t.Fatal(err)
	}
	st, err := spec.Open(scenario.RunOpts{UEs: ues, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var buf bytes.Buffer
	lw, err := trace.NewLineWriter(&buf, format, true)
	if err != nil {
		t.Fatal(err)
	}
	appendID := scenario.UEIDAppender(st)
	var id []byte
	var evs []scenario.Event
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		id = appendID(id[:0], e)
		if err := lw.Write(e.Time, id, e.Device, e.Type); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, e)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), evs
}

// lineOffset returns the byte offset just past the first n lines of data.
func lineOffset(t *testing.T, data []byte, n int) int64 {
	t.Helper()
	off := 0
	for i := 0; i < n; i++ {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			t.Fatalf("data has fewer than %d lines", n)
		}
		off += nl + 1
	}
	return int64(off)
}

// craftCrashedJournal writes the journal a crashed daemon would leave
// behind for a mid-flight run: identity, streaming state, the given
// checkpoint, and (optionally) raw tail bytes — a torn record, or a whole
// frame as an earlier format wrote it.
func craftCrashedJournal(t *testing.T, dir string, b runlog.Begin, c *runlog.Checkpoint, tail []byte) string {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, b.RunID+runlog.Ext)
	j, err := runlog.Create(path, runlog.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.AppendBegin(b)
	j.AppendState(StateStreaming, "")
	if c != nil {
		j.AppendCheckpoint(*c)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(tail) > 0 {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return path
}

func builtinJSON(t *testing.T, name string) json.RawMessage {
	t.Helper()
	spec, err := scenario.Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDaemonCrashRecoveryFileSinks is the byte-identical keystone for
// both file formats: a crashed run (durable sink prefix + torn half-line,
// journal checkpoint older than the file, torn journal tail) resumed by a
// fresh daemon must finish done with the sink file byte-for-byte equal to
// an uninterrupted run's.
func TestDaemonCrashRecoveryFileSinks(t *testing.T) {
	for _, format := range []string{"jsonl", "csv"} {
		t.Run(format, func(t *testing.T) {
			const ues = 200
			ref, evs := renderReference(t, "flash-crowd", ues, format)
			if len(evs) < 100 {
				t.Fatalf("scenario too small: %d events", len(evs))
			}
			cut := len(evs) / 2
			key := evs[cut-1]
			dataLines := cut
			if format == "csv" {
				dataLines++ // the header line precedes the data
			}
			off := lineOffset(t, ref, dataLines)

			// The crashed sink: the checkpointed durable prefix plus a torn
			// half-line that outran the last fsync.
			out := filepath.Join(t.TempDir(), "out."+format)
			crashed := append(append([]byte{}, ref[:off]...), []byte(`{"t":99.9,"ue_id":"tor`)...)
			if err := os.WriteFile(out, crashed, 0o644); err != nil {
				t.Fatal(err)
			}

			jdir := t.TempDir()
			craftCrashedJournal(t, jdir, runlog.Begin{
				RunID: "run-7", Scenario: "flash-crowd", Spec: builtinJSON(t, "flash-crowd"),
				Sink: format, Out: out, UEs: ues, StartedAt: time.Now(),
			}, &runlog.Checkpoint{
				Time: key.Time, UE: key.UE, Seq: key.Seq,
				Events: int64(cut), SinkBytes: off,
			}, []byte("torn-journal-tail-garbage"))

			s, ts := newDurableServer(t, Options{JournalDir: jdir})
			if err := s.Recover(); err != nil {
				t.Fatal(err)
			}
			final := waitState(t, ts.URL, "run-7")
			if final.State != StateDone {
				t.Fatalf("recovered run ended %s (err %q), want done", final.State, final.Error)
			}
			wantEvents := float64(len(evs))
			if got, _ := final.Result["events"].(float64); got != wantEvents {
				t.Fatalf("result events = %v, want %v", got, wantEvents)
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
				t.Fatalf("recovered file diverges from reference at byte %d (len %d vs %d)", i, len(got), len(ref))
			}

			// Recovery telemetry: one resume, fast-forward pruned the prefix.
			body := scrapeMetrics(t, ts.URL)
			if !regexp.MustCompile(`cptserved_journal_recoveries_total 1\b`).MatchString(body) {
				t.Fatalf("metrics missing recovery counter:\n%s", body)
			}
			m := regexp.MustCompile(`cptserved_journal_resume_skip_events_total (\d+)`).FindStringSubmatch(body)
			if m == nil {
				t.Fatal("metrics missing resume-skip counter")
			}
			if skips, _ := strconv.Atoi(m[1]); skips != cut {
				t.Fatalf("resume skipped %d events, want %d", skips, cut)
			}

			// The journal recorded the recovery and the terminal state, so a
			// later startup reaps it instead of resuming again.
			jpath := filepath.Join(jdir, "run-7"+runlog.Ext)
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
			if st.State != runlog.StateDone || !st.Terminal() {
				t.Fatalf("journal final state %q, want done", st.State)
			}
		})
	}
}

// TestParentJournalResumes pins journal compatibility across deleted
// journal fields. Each fixture was written by runlog at the commit before a
// deletion — a jsonl flash-crowd run of 120 UEs, crashed after a checkpoint
// at half its events — and carries the keys that commit still wrote:
// parent-journal.runlog the pacer's "shed_after_nanos" and "shed", and
// parent-journal-degrade.runlog the sink breaker's "degrade":"pause".
// Loading ignores the keys, and the run resumes, under the one sink-failure
// policy left, to a file byte-identical to an uninterrupted run's. A
// journal names its output by the relative path "out.jsonl", so the daemon
// runs from a temporary working directory.
func TestParentJournalResumes(t *testing.T) {
	for _, fx := range []struct {
		file, runID string
		keys        []string
	}{
		{"parent-journal.runlog", "run-4", []string{`"shed_after_nanos":`, `"shed":`}},
		{"parent-journal-degrade.runlog", "run-5", []string{`"degrade":"pause"`}},
	} {
		t.Run(fx.file, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", fx.file))
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range fx.keys {
				if !bytes.Contains(raw, []byte(key)) {
					t.Fatalf("fixture lacks the %s key it exists to carry", key)
				}
			}
			jdir := t.TempDir()
			jpath := filepath.Join(jdir, fx.runID+runlog.Ext)
			if err := os.WriteFile(jpath, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := runlog.Load(jpath)
			if err != nil || st.TornTail || st.Begin == nil || st.Checkpoint == nil || st.Begin.Out != "out.jsonl" {
				t.Fatalf("fixture loads as %+v, err %v", st, err)
			}
			ref, evs := renderReference(t, "flash-crowd", st.Begin.UEs, "jsonl")
			work := t.TempDir()
			if err := os.WriteFile(filepath.Join(work, "out.jsonl"), ref[:st.Checkpoint.SinkBytes], 0o644); err != nil {
				t.Fatal(err)
			}
			wd, err := os.Getwd()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Chdir(work); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { os.Chdir(wd) })

			s, ts := newDurableServer(t, Options{JournalDir: jdir})
			if err := s.Recover(); err != nil {
				t.Fatal(err)
			}
			final := waitState(t, ts.URL, fx.runID)
			if got, _ := final.Result["events"].(float64); final.State != StateDone || got != float64(len(evs)) {
				t.Fatalf("resumed parent run ended %s (err %q) with %v events, want done with %d", final.State, final.Error, got, len(evs))
			}
			got, err := os.ReadFile(filepath.Join(work, "out.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("resumed file differs from the uninterrupted run's: %d bytes vs %d", len(got), len(ref))
			}
			// Resumed from the checkpoint, not restarted from scratch.
			skips := fmt.Sprintf("cptserved_journal_resume_skip_events_total %d\n", st.Checkpoint.Events)
			if !strings.Contains(scrapeMetrics(t, ts.URL), skips) {
				t.Fatalf("metrics lack %q", skips)
			}
		})
	}
}

// TestDaemonRecoverModes pins the -recover=fail and -recover=ignore
// dispositions, plus the reap of already-terminal journals.
func TestDaemonRecoverModes(t *testing.T) {
	mk := func(t *testing.T, dir, id string) string {
		return craftCrashedJournal(t, dir, runlog.Begin{
			RunID: id, Scenario: "flash-crowd", Spec: builtinJSON(t, "flash-crowd"),
			Sink: "count", UEs: 80, StartedAt: time.Now(),
		}, nil, nil)
	}

	t.Run("fail", func(t *testing.T) {
		dir := t.TempDir()
		path := mk(t, dir, "run-3")
		s, ts := newDurableServer(t, Options{JournalDir: dir, Recover: "fail"})
		if err := s.Recover(); err != nil {
			t.Fatal(err)
		}
		var info RunInfo
		do(t, "GET", ts.URL+"/runs/run-3", nil, &info, http.StatusOK)
		if info.State != StateFailed {
			t.Fatalf("interrupted run state %s, want failed", info.State)
		}
		if want := "interrupted"; !bytes.Contains([]byte(info.Error), []byte(want)) {
			t.Fatalf("error %q does not mention %q", info.Error, want)
		}
		// The journal got its terminal record; a second daemon in resume
		// mode reaps it without registering anything.
		st, err := runlog.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != runlog.StateFailed {
			t.Fatalf("journal state %q, want failed", st.State)
		}
		s2, ts2 := newDurableServer(t, Options{JournalDir: dir})
		if err := s2.Recover(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatal("terminal journal was not reaped")
		}
		do(t, "GET", ts2.URL+"/runs/run-3", nil, nil, http.StatusNotFound)
	})

	t.Run("ignore", func(t *testing.T) {
		dir := t.TempDir()
		path := mk(t, dir, "run-4")
		s, ts := newDurableServer(t, Options{JournalDir: dir, Recover: "ignore"})
		if err := s.Recover(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatal("ignored journal was not removed")
		}
		do(t, "GET", ts.URL+"/runs/run-4", nil, nil, http.StatusNotFound)
		// The id sequence still advanced past the discarded run.
		var info RunInfo
		do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 50}, &info, http.StatusCreated)
		if info.ID != "run-5" {
			t.Fatalf("next run id %s, want run-5", info.ID)
		}
	})

	t.Run("bad-mode", func(t *testing.T) {
		s, _ := newDurableServer(t, Options{JournalDir: t.TempDir(), Recover: "yolo"})
		if err := s.Recover(); err == nil {
			t.Fatal("unknown recover mode accepted")
		}
	})
}

// replayEvSource adapts a scenario event slice to the consumers' arrival
// cursor, for seeding a backend session outside the daemon.
type replayEvSource struct {
	evs []scenario.Event
	i   int
}

func (s *replayEvSource) NextArrival() (trace.Arrival, bool, error) {
	if s.i >= len(s.evs) {
		return trace.Arrival{}, false, nil
	}
	e := s.evs[s.i]
	s.i++
	return trace.Arrival{Time: e.Time, UE: e.UE, Type: e.Type}, true, nil
}

// TestDaemonClosedLoopCrashRecovery pins exactly-once delivery through a
// daemon crash: a session seeded with a prefix of the stream, a journal
// checkpoint *older* than what the server applied (the crash always loses
// the checkpoint→truth tail), and a resumed daemon run — the backend must
// end with every event applied exactly once, to the same UEs, so its
// per-UE verdicts equal those of a backend fed the whole stream at once.
// The checkpoint comes in both encodings a journal may hold: the current
// one, and the older one whose "off" and "applied" keys repeat "t" and
// "events".
func TestDaemonClosedLoopCrashRecovery(t *testing.T) {
	const ues = 150
	spec, err := scenario.Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	st, err := spec.Open(scenario.RunOpts{UEs: ues, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var evs []scenario.Event
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		evs = append(evs, e)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if len(evs) < 60 {
		t.Fatalf("scenario too small: %d events", len(evs))
	}

	// The reference: one uninterrupted replay of the whole stream.
	const session = 424242
	ref := replayBackend(t, replaynet.ServerOpts{})
	if _, err := replaynet.ReplayClosed(ref.Addr().String(), events.Gen4G,
		&replayEvSource{evs: evs}, replaynet.ClosedOpts{SessionID: session}); err != nil {
		t.Fatal(err)
	}
	want := ref.Snapshot()

	// The journal checkpoint is staler than the server: it covers only the
	// first quarter. Resume must skip the gap unsent, not re-apply it.
	applied := len(evs) / 2
	cut := applied / 2
	key := evs[cut-1]
	ckpt := runlog.Checkpoint{Time: key.Time, UE: key.UE, Seq: key.Seq, Events: int64(cut)}
	t0 := strconv.FormatFloat(key.Time, 'g', -1, 64)
	older := journalFrame(fmt.Sprintf(`{"rec":"ckpt","t":%s,"ue":%d,"seq":%d,"events":%d,"off":%s,"applied":%d}`,
		t0, key.UE, key.Seq, cut, t0, cut))
	for _, tc := range []struct {
		name string
		ckpt *runlog.Checkpoint
		tail []byte
	}{
		{"checkpoint", &ckpt, nil},
		{"older-checkpoint", nil, older},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backend := replayBackend(t, replaynet.ServerOpts{})
			// Incarnation 1 (the one that "crashed"): the first half of the
			// stream reached the server under the session.
			st1, err := replaynet.ReplayClosed(backend.Addr().String(), events.Gen4G,
				&replayEvSource{evs: evs[:applied]}, replaynet.ClosedOpts{SessionID: session})
			if err != nil {
				t.Fatal(err)
			}
			if st1.Server.Events != applied {
				t.Fatalf("seed incarnation applied %d, want %d", st1.Server.Events, applied)
			}

			jdir := t.TempDir()
			craftCrashedJournal(t, jdir, runlog.Begin{
				RunID: "run-2", Scenario: "flash-crowd", Spec: builtinJSON(t, "flash-crowd"),
				Sink: "replay", Addr: backend.Addr().String(), ClosedLoop: true,
				UEs: ues, SessionID: session, StartedAt: time.Now(),
			}, tc.ckpt, tc.tail)
			loaded, err := runlog.Load(filepath.Join(jdir, "run-2"+runlog.Ext))
			if err != nil || loaded.TornTail || loaded.Checkpoint == nil || *loaded.Checkpoint != ckpt {
				t.Fatalf("journal loads as %+v (err %v), want checkpoint %+v", loaded, err, ckpt)
			}

			s, ts := newDurableServer(t, Options{JournalDir: jdir})
			if err := s.Recover(); err != nil {
				t.Fatal(err)
			}
			final := waitState(t, ts.URL, "run-2")
			if final.State != StateDone {
				t.Fatalf("recovered replay run ended %s (err %q), want done", final.State, final.Error)
			}
			if got, _ := final.Result["events"].(float64); got != float64(len(evs)) {
				t.Fatalf("session applied %v events, want exactly %d (loss or duplication)", got, len(evs))
			}
			if dups, _ := final.Result["duplicates"].(float64); dups != 0 {
				t.Fatalf("recovery double-applied %v events", dups)
			}
			got := backend.Snapshot()
			if got.Events != want.Events || got.Rejected != want.Rejected ||
				got.PeakConnectedUEs != want.PeakConnectedUEs || !reflect.DeepEqual(got.ByType, want.ByType) {
				t.Fatalf("resumed backend holds %+v, the uninterrupted one %+v", got, want)
			}
		})
	}
}

// journalFrame frames a raw record payload as the journal does: its
// little-endian length and CRC-32C, then the payload.
func journalFrame(payload string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum([]byte(payload), crc32.MakeTable(crc32.Castagnoli)))
	return append(b, payload...)
}

// TestDaemonJournalLifecycle pins journal file hygiene: created with the
// run, removed on DELETE after a clean drain, removed on retention
// eviction — and durable runs degrade gracefully when the journal
// directory is unusable.
func TestDaemonJournalLifecycle(t *testing.T) {
	jdir := t.TempDir()
	s, ts := newDurableServer(t, Options{JournalDir: jdir, MaxFinishedRuns: 1})
	_ = s

	runFile := func(id string) string { return filepath.Join(jdir, id+runlog.Ext) }
	startCount := func() RunInfo {
		var info RunInfo
		do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 60}, &info, http.StatusCreated)
		return waitState(t, ts.URL, info.ID)
	}

	// run-1: journal exists while retained, records the terminal state.
	if final := startCount(); final.State != StateDone {
		t.Fatalf("run-1 ended %s", final.State)
	}
	st, err := runlog.Load(runFile("run-1"))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != runlog.StateDone {
		t.Fatalf("run-1 journal state %q, want done", st.State)
	}

	// DELETE removes the journal with the run's history.
	do(t, "DELETE", ts.URL+"/runs/run-1", nil, nil, http.StatusOK)
	if _, err := os.Stat(runFile("run-1")); !os.IsNotExist(err) {
		t.Fatal("DELETE left the journal behind")
	}

	// Retention eviction removes the evicted run's journal: with
	// MaxFinishedRuns=1, starting run-3 evicts terminal run-2.
	startCount() // run-2
	startCount() // run-3 (evicts run-2 at submission)
	if _, err := os.Stat(runFile("run-2")); !os.IsNotExist(err) {
		t.Fatal("eviction left run-2's journal behind")
	}

	// Degradation: an unusable journal dir must not fail runs.
	notADir := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts2 := newDurableServer(t, Options{JournalDir: notADir})
	var info RunInfo
	do(t, "POST", ts2.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 60}, &info, http.StatusCreated)
	if final := waitState(t, ts2.URL, info.ID); final.State != StateDone {
		t.Fatalf("unjournaled run ended %s (err %q), want done", final.State, final.Error)
	}
}

// TestDaemonRunPanicContained pins satellite 1 at the daemon layer: a
// panicking run goroutine becomes a failed run with the panic and stack
// in its error, bumps cptserved_run_panics_total, journals the terminal
// state, and leaves the daemon serving.
func TestDaemonRunPanicContained(t *testing.T) {
	jdir := t.TempDir()
	_, ts := newDurableServer(t, Options{JournalDir: jdir})

	hook := func(*run) { panic("synthetic run explosion") }
	executeTestHook.Store(&hook)
	t.Cleanup(func() { executeTestHook.Store(nil) })

	var info RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 60}, &info, http.StatusCreated)
	final := waitState(t, ts.URL, info.ID)
	if final.State != StateFailed {
		t.Fatalf("panicked run ended %s, want failed", final.State)
	}
	for _, want := range []string{"run panicked", "synthetic run explosion", "goroutine"} {
		if !bytes.Contains([]byte(final.Error), []byte(want)) {
			t.Fatalf("error %q missing %q", final.Error, want)
		}
	}
	st, err := runlog.Load(filepath.Join(jdir, info.ID+runlog.Ext))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != runlog.StateFailed {
		t.Fatalf("journal state %q, want failed", st.State)
	}
	body := scrapeMetrics(t, ts.URL)
	if !regexp.MustCompile(`cptserved_run_panics_total 1\b`).MatchString(body) {
		t.Fatal("metrics missing the panic counter")
	}

	// The daemon survived: with the hook gone, the next run completes.
	executeTestHook.Store(nil)
	do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: 60}, &info, http.StatusCreated)
	if final := waitState(t, ts.URL, info.ID); final.State != StateDone {
		t.Fatalf("post-panic run ended %s, want done", final.State)
	}
}

// TestDaemonDurableConcurrentChurn exercises the journaled hot path under
// the race detector: tight checkpoint cadence, concurrent paced file-sink
// runs, live stats/metrics scrapes, and stop-mid-stream.
func TestDaemonDurableConcurrentChurn(t *testing.T) {
	jdir := t.TempDir()
	outDir := t.TempDir()
	_, ts := newDurableServer(t, Options{
		JournalDir:         jdir,
		CheckpointEvents:   16,
		CheckpointInterval: 5 * time.Millisecond,
	})

	const n = 3
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		var info RunInfo
		do(t, "POST", ts.URL+"/runs", StartRequest{
			Scenario: "flash-crowd", UEs: 150, Compression: 120,
			Sink: "jsonl", Out: filepath.Join(outDir, fmt.Sprintf("churn-%d.jsonl", i)),
		}, &info, http.StatusCreated)
		ids[i] = info.ID
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, id := range ids {
			var stats RunStats
			do(t, "GET", ts.URL+"/runs/"+id+"/stats", nil, &stats, http.StatusOK)
		}
		scrapeMetrics(t, ts.URL)
		time.Sleep(10 * time.Millisecond)
	}
	for _, id := range ids {
		do(t, "DELETE", ts.URL+"/runs/"+id, nil, nil, http.StatusOK)
	}
	for _, id := range ids {
		final := waitState(t, ts.URL, id)
		if final.State != StateStopped && final.State != StateDone {
			t.Fatalf("churn run %s ended %s (err %q)", id, final.State, final.Error)
		}
	}
}

// The sinks find the pacer's optional source methods on the checkpoint tap
// that stands between them and it in a journaled run.
var _ interface {
	AppendUEID([]byte, scenario.Event) []byte
	OnIdle(func(time.Time))
} = (*ckptTap)(nil)
