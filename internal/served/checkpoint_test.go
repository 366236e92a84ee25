package served

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	_ "unsafe" // go:linkname

	"cptgpt/internal/runlog"
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
