package runlog

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func testBegin() Begin {
	return Begin{
		RunID:    "run-1",
		Scenario: "flash-crowd",
		Spec:     json.RawMessage(`{"name":"flash-crowd"}`),
		Sink:     "jsonl",
		Out:      "/tmp/out.jsonl",
		UEs:      500,
		// Compression 2.0 means half trace speed; pick a non-default to
		// catch field drops in the round trip.
		Compression: 2.0,
		SessionID:   0xdeadbeef,
		// The resource envelope too: FuzzRunlogLoad's seeds compare the
		// loaded Begin field for field.
		MaxSpillBytes: 1 << 20, MaxEvents: 500, MaxWallNanos: int64(3 * time.Second),
		StartedAt: time.Unix(1700000000, 0).UTC(),
	}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run-1"+Ext)
	j, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	begin := testBegin()
	j.AppendBegin(begin)
	j.AppendState("generating", "")
	j.AppendCheckpoint(Checkpoint{
		Time: 12.5, UE: 42, Seq: 7,
		Events: 1000, SinkBytes: 81920,
	})
	j.AppendCheckpoint(Checkpoint{
		Time: 99.25, UE: 41, Seq: 9,
		Events: 5000, SinkBytes: 409600,
	})
	j.AppendState("done", "")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.TornTail {
		t.Error("clean journal reported a torn tail")
	}
	if st.Records != 5 {
		t.Errorf("Records = %d, want 5", st.Records)
	}
	if st.Begin == nil {
		t.Fatal("Begin record lost")
	}
	if st.Begin.RunID != begin.RunID || st.Begin.Scenario != begin.Scenario ||
		st.Begin.SessionID != begin.SessionID || st.Begin.Compression != begin.Compression ||
		!st.Begin.StartedAt.Equal(begin.StartedAt) {
		t.Errorf("Begin round trip mismatch: %+v", st.Begin)
	}
	if string(st.Begin.Spec) != string(begin.Spec) {
		t.Errorf("Spec round trip: %s", st.Begin.Spec)
	}
	want := Checkpoint{
		Time: 99.25, UE: 41, Seq: 9,
		Events: 5000, SinkBytes: 409600,
	}
	if st.Checkpoint == nil || *st.Checkpoint != want {
		t.Errorf("Checkpoint = %+v, want %+v", st.Checkpoint, want)
	}
	if st.State != StateDone || !st.Terminal() {
		t.Errorf("State = %q (terminal=%v), want done/terminal", st.State, st.Terminal())
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Offset != info.Size() {
		t.Errorf("Offset = %d, want full file %d", st.Offset, info.Size())
	}
}

// TestCheckpointMarshalMatchesWire pins the hand-built checkpoint payload
// against the reflective wireRecord decoder: every field must survive, and
// the zero-suppressed fields must decode as zeros.
func TestCheckpointMarshalMatchesWire(t *testing.T) {
	cases := []Checkpoint{
		{},
		{Time: 1e6, UE: 1, Seq: 1, Events: 1},
		{Time: 0.015625, UE: 1<<63 + 5, Seq: 4294967295,
			Events: 1 << 40, SinkBytes: 1 << 50},
	}
	for _, c := range cases {
		// Build the payload exactly as AppendCheckpoint does, by writing
		// through a journal whose file captures the frame.
		var cap captureFile
		jw := newJournal(&cap, "mem", Options{})
		jw.AppendCheckpoint(c)
		jw.Close()
		if len(cap.frames) != 1 {
			t.Fatalf("captured %d frames, want 1", len(cap.frames))
		}
		payload := cap.frames[0]
		if !json.Valid(payload) {
			t.Fatalf("hand-built checkpoint is not valid JSON: %s", payload)
		}
		var rec wireRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatalf("decoding %s: %v", payload, err)
		}
		var st RunState
		st.apply(&rec)
		if st.Checkpoint == nil || *st.Checkpoint != c {
			t.Errorf("round trip %s -> %+v, want %+v", payload, st.Checkpoint, c)
		}
	}
}

// captureFile collects appended frame payloads, stripping the 8-byte
// header of each record (the journal writes one whole frame per Write).
type captureFile struct {
	frames [][]byte
}

func (c *captureFile) Write(p []byte) (int, error) {
	total := len(p)
	for len(p) >= 8 {
		n := int(uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24)
		if 8+n > len(p) {
			break
		}
		c.frames = append(c.frames, append([]byte(nil), p[8:8+n]...))
		p = p[8+n:]
	}
	return total, nil
}
func (c *captureFile) Sync() error  { return nil }
func (c *captureFile) Close() error { return nil }

func TestTornTailTruncatedOnResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run-2"+Ext)
	j, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.AppendBegin(testBegin())
	j.AppendCheckpoint(Checkpoint{Time: 5, UE: 3, Seq: 1, Events: 10})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A crash mid-append tears the tail: a partial header, then a partial
	// frame, then a full frame with a corrupt byte.
	tails := map[string][]byte{
		"partial-header": {0x10, 0x00},
		"partial-frame":  {0xff, 0x00, 0x00, 0x00, 0x12, 0x34, 0x56, 0x78, 'x', 'y'},
	}
	// CRC mismatch: take the clean second record's frame and flip a payload
	// byte.
	corrupt := append([]byte(nil), clean[len(clean)/2:]...)
	if len(corrupt) > 10 {
		corrupt[9] ^= 0xff
	}
	tails["crc-mismatch"] = corrupt

	for name, tail := range tails {
		t.Run(name, func(t *testing.T) {
			p := filepath.Join(t.TempDir(), "torn"+Ext)
			if err := os.WriteFile(p, append(append([]byte(nil), clean...), tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Load(p)
			if err != nil {
				t.Fatal(err)
			}
			if !st.TornTail {
				t.Error("torn tail not detected")
			}
			if st.Records != 2 || st.Begin == nil || st.Checkpoint == nil {
				t.Errorf("valid prefix not preserved: records=%d", st.Records)
			}
			if st.Offset != int64(len(clean)) {
				t.Errorf("Offset = %d, want %d", st.Offset, len(clean))
			}

			// Resume must truncate the tail and keep appending cleanly.
			j2, st2, err := OpenResume(p, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if st2.Offset != int64(len(clean)) {
				t.Errorf("resume Offset = %d, want %d", st2.Offset, len(clean))
			}
			j2.AppendState(StateDone, "")
			if err := j2.Close(); err != nil {
				t.Fatal(err)
			}
			st3, err := Load(p)
			if err != nil {
				t.Fatal(err)
			}
			if st3.TornTail || st3.Records != 3 || st3.State != StateDone {
				t.Errorf("after resume: torn=%v records=%d state=%q", st3.TornTail, st3.Records, st3.State)
			}
		})
	}
}

func TestCorruptBeforeBegin(t *testing.T) {
	p := filepath.Join(t.TempDir(), "junk"+Ext)
	if err := os.WriteFile(p, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Load(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Begin != nil || !st.TornTail || st.Records != 0 {
		t.Errorf("junk journal parsed as valid: %+v", st)
	}
}

func TestScanDir(t *testing.T) {
	dir := t.TempDir()
	for _, id := range []string{"run-3", "run-1"} {
		j, err := Create(filepath.Join(dir, id+Ext), Options{})
		if err != nil {
			t.Fatal(err)
		}
		b := testBegin()
		b.RunID = id
		j.AppendBegin(b)
		j.Close()
	}
	// A non-journal file is ignored.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	states, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 2 {
		t.Fatalf("ScanDir found %d journals, want 2", len(states))
	}
	if states[0].Begin.RunID != "run-1" || states[1].Begin.RunID != "run-3" {
		t.Errorf("ScanDir order: %s, %s", states[0].Begin.RunID, states[1].Begin.RunID)
	}

	// A missing directory is not an error — just nothing to recover.
	none, err := ScanDir(filepath.Join(dir, "missing"))
	if err != nil || none != nil {
		t.Errorf("missing dir: %v, %v", none, err)
	}
}

// TestJournalWriteThrough pins the process-crash budget: every appended
// record is in the file the moment its append returns. The file is read
// before Close, as a SIGKILL would leave it, after the begin barrier and
// then a state and 44 back-to-back checkpoints (one served-jsonl round)
// with no Sync.
func TestJournalWriteThrough(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run-1"+Ext)
	j, err := Create(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.AppendBegin(testBegin())
	j.Sync()
	j.AppendState("streaming", "")
	for i := 1; i <= 44; i++ {
		j.AppendCheckpoint(Checkpoint{Time: float64(i), Events: int64(i)})
	}
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 46 || st.TornTail || st.State != "streaming" {
		t.Fatalf("file before Close: %d records (torn=%v, state %q), want all 46 appended", st.Records, st.TornTail, st.State)
	}
	if st.Checkpoint == nil || st.Checkpoint.Events != 44 {
		t.Fatalf("newest checkpoint on disk = %+v, want events=44", st.Checkpoint)
	}
}

// TestJournalNoIdleFsync pins the fsync accounting: an idle journal issues
// no fsyncs, and a lone append is fsynced by the deferred fsync alone,
// without any Sync.
func TestJournalNoIdleFsync(t *testing.T) {
	var m Metrics
	j, err := Create(filepath.Join(t.TempDir(), "run-1"+Ext), Options{Metrics: &m})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.AppendBegin(testBegin())
	j.Sync()
	base := m.Fsyncs.Load()
	if base != 1 {
		t.Fatalf("Fsyncs after the begin barrier = %d, want 1", base)
	}
	time.Sleep(300 * time.Millisecond)
	if got := m.Fsyncs.Load(); got != base {
		t.Fatalf("idle journal issued %d fsyncs in 300 ms, want 0", got-base)
	}
	j.AppendState("streaming", "")
	for deadline := time.Now().Add(2 * time.Second); m.Fsyncs.Load() == base; {
		if time.Now().After(deadline) {
			t.Fatal("a lone append was not fsynced within 2 s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := m.Fsyncs.Load(); got != base+1 {
		t.Fatalf("one append cost %d fsyncs, want 1", got-base)
	}
}

// slowSyncFile is a real journal file whose fsync takes a moment to start,
// as on a busy disk, which widens any window in which Close could close
// the file under a pending fsync.
type slowSyncFile struct{ *os.File }

func (f slowSyncFile) Sync() error {
	time.Sleep(50 * time.Microsecond)
	return f.File.Sync()
}

// TestJournalCloseRacesTimer runs the deferred fsync into Close: with the
// delay cut to 20 µs and Close 0–180 µs after the append, the timer fires
// just before, during or after Close. An fsync on the closed file would
// fail, degrade the journal and count an error that no disk caused.
func TestJournalCloseRacesTimer(t *testing.T) {
	defer func(d time.Duration) { syncDelay = d }(syncDelay)
	syncDelay = 20 * time.Microsecond
	var m Metrics
	dir := t.TempDir()
	for i := 0; i < 50; i++ {
		path := filepath.Join(dir, fmt.Sprintf("run-%d%s", i, Ext))
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		j := newJournal(slowSyncFile{f}, path, Options{
			Metrics: &m,
			OnError: func(err error) { t.Errorf("journal %d degraded: %v", i, err) },
		})
		j.AppendCheckpoint(Checkpoint{Time: float64(i), Events: int64(i)})
		time.Sleep(time.Duration(i%10) * 20 * time.Microsecond)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Errors.Load(); got != 0 {
		t.Fatalf("Metrics.Errors = %d, want 0", got)
	}
}

// failFile fails writes (or syncs) after a threshold, to drive degradation.
type failFile struct {
	writes   int
	failAt   int
	failSync bool
}

var errDisk = errors.New("disk full")

func (f *failFile) Write(p []byte) (int, error) {
	f.writes++
	if !f.failSync && f.writes >= f.failAt {
		return 0, errDisk
	}
	return len(p), nil
}
func (f *failFile) Sync() error {
	if f.failSync {
		return errDisk
	}
	return nil
}
func (f *failFile) Close() error { return nil }

func TestDegradeOnDiskError(t *testing.T) {
	for _, tc := range []struct {
		name string
		file *failFile
	}{
		{"write-error", &failFile{failAt: 2}},
		{"sync-error", &failFile{failAt: 1 << 30, failSync: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var m Metrics
			var gotErr error
			j := newJournal(tc.file, "mem", Options{
				Metrics: &m,
				OnError: func(err error) { gotErr = err },
			})
			j.AppendBegin(testBegin())
			j.AppendCheckpoint(Checkpoint{Time: 1, Events: 1})
			j.AppendCheckpoint(Checkpoint{Time: 2, Events: 2})
			// A write error degrades inside the append; an fsync runs at
			// Sync (or the deferred fsync), not inside the append.
			j.Sync()
			if !j.Degraded() {
				t.Fatal("journal did not degrade on disk error")
			}
			if !errors.Is(gotErr, errDisk) {
				t.Errorf("OnError got %v, want disk error", gotErr)
			}
			if m.Errors.Load() != 1 {
				t.Errorf("Errors = %d, want exactly 1 (degrade is once)", m.Errors.Load())
			}
			// Appends after degradation are silent no-ops.
			j.AppendState(StateDone, "")
			j.Sync()
			if err := j.Close(); err != nil {
				t.Errorf("Close after degrade: %v", err)
			}
		})
	}
}

func BenchmarkRunlogAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench"+Ext)
	var m Metrics
	j, err := Create(path, Options{Metrics: &m})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	j.AppendBegin(testBegin())
	c := Checkpoint{
		Time: 123.456789, UE: 982451653, Seq: 31,
		Events: 1 << 20, SinkBytes: 1 << 27,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Events++
		j.AppendCheckpoint(c)
	}
}
