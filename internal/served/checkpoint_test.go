package served

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"cptgpt/internal/clock"
	"cptgpt/internal/events"
	"cptgpt/internal/replaynet"
	"cptgpt/internal/runlog"
	"cptgpt/internal/scenario"
)

// setSyncTestHook is the file sink's unexported test seam: h runs at each
// kill point of a checkpoint on its way to the journal — "queued" (a mark
// just handed to the syncer), "fsync" (before the mark's fsync) and
// "synced" (after it, before the checkpoint is appended). It is reached by
// linkname so that the sink exports no test switch.
//
//go:linkname setSyncTestHook cptgpt/internal/scenario.setSyncTestHook
func setSyncTestHook(h func(point string))

// journalCheckpoints returns every checkpoint record of a journal file, in
// order, read frame by frame as runlog writes them.
func journalCheckpoints(t *testing.T, raw []byte) []runlog.Checkpoint {
	t.Helper()
	var out []runlog.Checkpoint
	for len(raw) >= 8 {
		n := int(binary.LittleEndian.Uint32(raw))
		if len(raw) < 8+n {
			break // a torn tail, as a crash leaves it
		}
		var rec struct {
			Rec    string  `json:"rec"`
			T      float64 `json:"t"`
			UE     uint64  `json:"ue"`
			Seq    uint32  `json:"seq"`
			Events int64   `json:"events"`
			Bytes  int64   `json:"bytes"`
		}
		if err := json.Unmarshal(raw[8:8+n], &rec); err != nil {
			t.Fatalf("journal record %q: %v", raw[8:8+n], err)
		}
		if rec.Rec == "ckpt" {
			out = append(out, runlog.Checkpoint{Time: rec.T, UE: rec.UE, Seq: rec.Seq, Events: rec.Events, SinkBytes: rec.Bytes})
		}
		raw = raw[8+n:]
	}
	return out
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCheckpointKillPoints stops a journaled jsonl run at each point of a
// checkpoint's way to the journal and takes its journal and file as a
// crash there would leave them: with mark k+1 queued behind mark k's fsync
// in flight, with mark k's fsync in flight, and with it done but the
// checkpoint not yet appended. The journal then ends at checkpoint k-1,
// and a fresh daemon recovering it resumes from there to a file
// byte-identical to an uninterrupted run's.
func TestCheckpointKillPoints(t *testing.T) {
	const ues, every, k = 200, 100, 3
	ref, evs := renderReference(t, "flash-crowd", ues, "jsonl")
	if len(evs) < (k+2)*every {
		t.Fatalf("scenario too small: %d events", len(evs))
	}
	for _, kill := range []struct {
		point string
		n     int // the crash comes at the n-th visit of point
	}{{"queued", k + 1}, {"fsync", k}, {"synced", k}} {
		t.Run(kill.point, func(t *testing.T) {
			jdir, out := t.TempDir(), filepath.Join(t.TempDir(), "out.jsonl")
			jpath := filepath.Join(jdir, "run-1"+runlog.Ext)
			var (
				mu            sync.Mutex
				visits        = map[string]int{}
				journal, file []byte
			)
			crashed := make(chan struct{})
			setSyncTestHook(func(point string) {
				mu.Lock()
				visits[point]++
				n := visits[point]
				mu.Unlock()
				if point == kill.point && n == kill.n {
					var jerr, ferr error
					journal, jerr = os.ReadFile(jpath)
					file, ferr = os.ReadFile(out)
					if jerr != nil || ferr != nil {
						t.Errorf("taking the crashed run's files: %v, %v", jerr, ferr)
					}
					close(crashed)
				}
				// Mark k's fsync waits for the crash that mark k+1's
				// queueing brings.
				if kill.point == "queued" && point == "fsync" && n == k {
					<-crashed
				}
			})
			t.Cleanup(func() { setSyncTestHook(nil) })

			_, ts := newDurableServer(t, Options{JournalDir: jdir, CheckpointEvents: every, CheckpointInterval: time.Hour})
			var info RunInfo
			do(t, "POST", ts.URL+"/runs", StartRequest{Scenario: "flash-crowd", UEs: ues, Sink: "jsonl", Out: out}, &info, http.StatusCreated)
			if final := waitState(t, ts.URL, info.ID); final.State != StateDone || info.ID != "run-1" {
				t.Fatalf("%s ended %s (err %q)", info.ID, final.State, final.Error)
			}
			setSyncTestHook(nil)
			select {
			case <-crashed:
			default:
				t.Fatalf("the run never reached visit %d of %q", kill.n, kill.point)
			}

			// What the crash left: the journal ends at checkpoint k-1, the
			// file holds more than that checkpoint covers.
			ckpts := journalCheckpoints(t, journal)
			if len(ckpts) != k-1 || ckpts[k-2].Events != (k-1)*every {
				t.Fatalf("the crashed journal holds checkpoints %+v, want %d, the last covering %d events", ckpts, k-1, (k-1)*every)
			}
			last := ckpts[k-2]
			if int64(len(file)) <= last.SinkBytes || !bytes.HasPrefix(ref, file) {
				t.Fatalf("the crashed file holds %d bytes of the reference, the checkpoint covers %d: no tail to drop", len(file), last.SinkBytes)
			}

			jdir2 := t.TempDir()
			if err := os.WriteFile(filepath.Join(jdir2, "run-1"+runlog.Ext), journal, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(out, file, 0o644); err != nil {
				t.Fatal(err)
			}
			s2, ts2 := newDurableServer(t, Options{JournalDir: jdir2})
			if err := s2.Recover(); err != nil {
				t.Fatal(err)
			}
			if final := waitState(t, ts2.URL, "run-1"); final.State != StateDone {
				t.Fatalf("recovered run ended %s (err %q), want done", final.State, final.Error)
			}
			if got := readFile(t, out); !bytes.Equal(got, ref) {
				t.Fatalf("resumed file (%d bytes) differs from an uninterrupted run's (%d bytes)", len(got), len(ref))
			}
			skips := fmt.Sprintf("cptserved_journal_resume_skip_events_total %d\n", last.Events)
			if !strings.Contains(scrapeMetrics(t, ts2.URL), skips) {
				t.Fatalf("metrics lack %q", skips)
			}
		})
	}
}

// eventList is a fixed in-memory scenario.EventSource.
type eventList struct{ evs []scenario.Event }

func (l *eventList) Next() (scenario.Event, bool) {
	if len(l.evs) == 0 {
		return scenario.Event{}, false
	}
	e := l.evs[0]
	l.evs = l.evs[1:]
	return e, true
}
func (l *eventList) Err() error                    { return nil }
func (l *eventList) Generation() events.Generation { return events.Gen4G }
func (l *eventList) UEID(scenario.Event) string    { return "ue" }

// ckptCalls is a scenario.Checkpointer that records the tap's released
// count at each checkpoint and commits nothing.
type ckptCalls struct {
	tap *ckptTap
	at  []int64
}

func (c *ckptCalls) Checkpoint(func(scenario.Cursor, bool)) { c.at = append(c.at, c.tap.n) }
func (c *ckptCalls) Resume(scenario.Cursor) error           { return nil }

// TestCkptTapIntervalCadence pins the journal tap's clock cadence on a
// manual clock: the clock is read every 16 releases, so an interval
// checkpoint lands on the first 16-event boundary at or past the interval
// since the last one, and the end of the stream always checkpoints. The
// consumer takes one fixed step of clock per event: a step of exactly
// 1/16 of the interval reaches it on every boundary, a nanosecond less on
// every second one.
func TestCkptTapIntervalCadence(t *testing.T) {
	for _, tc := range []struct {
		step time.Duration
		want []int64
	}{
		{62500 * time.Microsecond, []int64{16, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 200}},
		{62500*time.Microsecond - 1, []int64{32, 64, 96, 128, 160, 192, 200}},
	} {
		src := &eventList{}
		for i := 0; i < 200; i++ {
			src.evs = append(src.evs, scenario.Event{Time: float64(i), UE: 1, Seq: uint32(i)})
		}
		m := clock.NewManual()
		sink := &ckptCalls{}
		tap := &ckptTap{Pacer: scenario.NewPacer(nil, src, 0), every: 1 << 30, interval: time.Second, sink: sink, clk: m, lastT: m.Now()}
		sink.tap = tap
		for {
			if _, ok := tap.Next(); !ok {
				break
			}
			m.Advance(tc.step)
		}
		if !reflect.DeepEqual(sink.at, tc.want) {
			t.Errorf("step %v: checkpoints after %v releases, want %v", tc.step, sink.at, tc.want)
		}
	}
}

// TestJournalCheckpointsCoverFilePrefix: for every checkpoint a journaled
// file run records, the file's first SinkBytes bytes hold exactly Events
// lines, and the last of them is the line of the event at the record's
// (t, ue, seq) — at event cadences on either side of the encoder's batch,
// and on a paced run whose checkpoints come by the clock.
func TestJournalCheckpointsCoverFilePrefix(t *testing.T) {
	const ues = 120
	for _, tc := range []struct {
		format      string
		every       int
		interval    time.Duration
		compression float64
	}{
		{"jsonl", 7, time.Hour, 0},
		{"csv", 100, time.Hour, 0},
		{"jsonl", 513, time.Hour, 0},
		{"csv", 1 << 30, 20 * time.Millisecond, 7200},
	} {
		name := fmt.Sprintf("%s/every=%d/interval=%v", tc.format, tc.every, tc.interval)
		t.Run(name, func(t *testing.T) {
			ref, evs := renderReference(t, "flash-crowd", ues, tc.format)
			jdir, out := t.TempDir(), filepath.Join(t.TempDir(), "out."+tc.format)
			_, ts := newDurableServer(t, Options{JournalDir: jdir, CheckpointEvents: tc.every, CheckpointInterval: tc.interval})
			var info RunInfo
			do(t, "POST", ts.URL+"/runs", StartRequest{
				Scenario: "flash-crowd", UEs: ues, Sink: tc.format, Out: out, Compression: tc.compression,
			}, &info, http.StatusCreated)
			if final := waitState(t, ts.URL, info.ID); final.State != StateDone {
				t.Fatalf("run ended %s (err %q)", final.State, final.Error)
			}
			file := readFile(t, out)
			if !bytes.Equal(file, ref) {
				t.Fatalf("file (%d bytes) differs from the reference (%d bytes)", len(file), len(ref))
			}
			ckpts := journalCheckpoints(t, readFile(t, filepath.Join(jdir, info.ID+runlog.Ext)))
			if len(ckpts) < 3 {
				t.Fatalf("%d checkpoints recorded, want several", len(ckpts))
			}
			header := 0
			if tc.format == "csv" {
				header = 1
			}
			for i, c := range ckpts {
				if i > 0 && (c.Events <= ckpts[i-1].Events || c.SinkBytes <= ckpts[i-1].SinkBytes) {
					t.Fatalf("checkpoint %d %+v does not advance past %+v", i, c, ckpts[i-1])
				}
				prefix := file[:c.SinkBytes]
				lines := bytes.Split(prefix[:len(prefix)-1], []byte{'\n'})
				if prefix[len(prefix)-1] != '\n' || int64(len(lines)-header) != c.Events {
					t.Fatalf("checkpoint %+v: its %d bytes hold %d lines, not %d whole ones", c, c.SinkBytes, len(lines)-header, c.Events)
				}
				e := evs[c.Events-1]
				if e.Time != c.Time || e.UE != c.UE || e.Seq != c.Seq {
					t.Fatalf("checkpoint %+v: the %d-th event has key (%v, %d, %d)", c, c.Events, e.Time, e.UE, e.Seq)
				}
				if tm := lineTime(t, tc.format, lines[len(lines)-1]); tm != c.Time {
					t.Fatalf("checkpoint %+v: its last line %q carries t=%v", c, lines[len(lines)-1], tm)
				}
			}
		})
	}
}

// TestJournalCheckpointsCoverAckedPrefix: a journaled closed-loop run
// checkpoints like a file run — each checkpoint covers every event
// released before it and lands once the server has acknowledged them. So
// the records' Events strictly increase, each keys the Events-th event of
// the uninterrupted stream, and the last covers the whole stream — by
// event cadence, and on a paced run whose checkpoints come by the clock.
func TestJournalCheckpointsCoverAckedPrefix(t *testing.T) {
	const ues = 120
	_, evs := renderReference(t, "flash-crowd", ues, "jsonl")
	for _, tc := range []struct {
		every       int
		interval    time.Duration
		compression float64
	}{
		{7, time.Hour, 0},
		{1 << 30, 20 * time.Millisecond, 7200},
	} {
		t.Run(fmt.Sprintf("every=%d/interval=%v", tc.every, tc.interval), func(t *testing.T) {
			backend := replayBackend(t, replaynet.ServerOpts{})
			jdir := t.TempDir()
			_, ts := newDurableServer(t, Options{JournalDir: jdir, CheckpointEvents: tc.every, CheckpointInterval: tc.interval})
			var info RunInfo
			do(t, "POST", ts.URL+"/runs", StartRequest{
				Scenario: "flash-crowd", UEs: ues, Sink: "replay", Addr: backend.Addr().String(),
				ClosedLoop: true, Compression: tc.compression,
			}, &info, http.StatusCreated)
			final := waitState(t, ts.URL, info.ID)
			if final.State != StateDone {
				t.Fatalf("run ended %s (err %q)", final.State, final.Error)
			}
			if got, _ := final.Result["events"].(float64); got != float64(len(evs)) {
				t.Fatalf("server applied %v events, want %d", got, len(evs))
			}
			ckpts := journalCheckpoints(t, readFile(t, filepath.Join(jdir, info.ID+runlog.Ext)))
			if len(ckpts) < 3 {
				t.Fatalf("%d checkpoints recorded, want several", len(ckpts))
			}
			for i, c := range ckpts {
				if i > 0 && c.Events <= ckpts[i-1].Events {
					t.Fatalf("checkpoint %d %+v does not advance past %+v", i, c, ckpts[i-1])
				}
				if c.Events < 1 || c.Events > int64(len(evs)) {
					t.Fatalf("checkpoint %+v outside the %d-event stream", c, len(evs))
				}
				e := evs[c.Events-1]
				if e.Time != c.Time || e.UE != c.UE || e.Seq != c.Seq {
					t.Fatalf("checkpoint %+v: the %d-th event has key (%v, %d, %d)", c, c.Events, e.Time, e.UE, e.Seq)
				}
			}
			if last := ckpts[len(ckpts)-1]; last.Events != int64(len(evs)) {
				t.Fatalf("last checkpoint %+v covers %d of %d events", last, last.Events, len(evs))
			}
		})
	}
}

// lineTime parses the time field of a jsonl or csv event line.
func lineTime(t *testing.T, format string, line []byte) float64 {
	t.Helper()
	if format == "csv" {
		f := strings.Split(string(line), ",")
		if len(f) < 3 {
			t.Fatalf("csv line %q", line)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	var rec struct {
		T float64 `json:"t"`
	}
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatal(err)
	}
	return rec.T
}
