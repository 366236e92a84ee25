package runlog

import (
	"encoding/json"
	"errors"
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
	j, err := Create(path, Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	begin := testBegin()
	j.AppendBegin(begin)
	j.AppendState("generating", "")
	j.AppendCheckpoint(Checkpoint{
		Time: 12.5, UE: 42, Seq: 7,
		Events: 1000, TraceOffset: 12.5,
		SinkBytes: 81920, SinkLines: 1000,
	})
	j.AppendCheckpoint(Checkpoint{
		Time: 99.25, UE: 41, Seq: 9,
		Events: 5000, TraceOffset: 99.25,
		SinkBytes: 409600, SinkLines: 5000, ReplayApplied: 5000,
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
		Events: 5000, TraceOffset: 99.25,
		SinkBytes: 409600, SinkLines: 5000, ReplayApplied: 5000,
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
		{Time: 1e6, UE: 1, Seq: 1, Events: 1, TraceOffset: 1e6},
		{Time: 0.015625, UE: 1<<63 + 5, Seq: 4294967295,
			Events: 1 << 40, TraceOffset: 3.14159,
			SinkBytes: 1 << 50, SinkLines: 123456789, ReplayApplied: 99},
	}
	for _, c := range cases {
		// Build the payload exactly as AppendCheckpoint does, by writing
		// through a journal whose file captures the frame.
		var cap captureFile
		jw := newJournal(&cap, "mem", Options{Policy: PolicyAlways})
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

// captureFile collects appended frame payloads (strips the 8-byte header
// of each record as it arrives via a single buffered write).
type captureFile struct {
	frames [][]byte
}

func (c *captureFile) Write(p []byte) (int, error) {
	total := len(p)
	// The journal flushes whole frames; split them back apart.
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
	j, err := Create(path, Options{Policy: PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	j.AppendBegin(testBegin())
	j.AppendCheckpoint(Checkpoint{Time: 5, UE: 3, Seq: 1, Events: 10, TraceOffset: 5})
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
			j2, st2, err := OpenResume(p, Options{Policy: PolicyAlways})
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
		j, err := Create(filepath.Join(dir, id+Ext), Options{Policy: PolicyAlways})
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
				Policy:  PolicyAlways,
				Metrics: &m,
				OnError: func(err error) { gotErr = err },
			})
			j.AppendBegin(testBegin())
			j.AppendCheckpoint(Checkpoint{Time: 1, Events: 1})
			j.AppendCheckpoint(Checkpoint{Time: 2, Events: 2})
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

func TestPolicyParse(t *testing.T) {
	for s, want := range map[string]Policy{
		"": PolicyInterval, "interval": PolicyInterval,
		"always": PolicyAlways, "off": PolicyOff,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", s, got, err, want)
		}
		if s != "" && got.String() != s {
			t.Errorf("Policy(%q).String() = %q", s, got.String())
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("ParsePolicy accepted junk")
	}
}

func TestIntervalPolicyBuffersBetweenSyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "buf"+Ext)
	j, err := Create(path, Options{Policy: PolicyInterval, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	j.AppendBegin(testBegin())
	for i := 0; i < 100; i++ {
		j.AppendCheckpoint(Checkpoint{Time: float64(i), Events: int64(i)})
	}
	// Nothing flushed yet (the interval is an hour); Sync is the explicit
	// barrier. The 100 buffered checkpoints coalesce into the newest one —
	// only the latest progress marker matters for recovery.
	j.Sync()
	st, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != 2 {
		t.Errorf("after Sync: %d records durable, want 2 (begin + coalesced ckpt)", st.Records)
	}
	if st.Checkpoint == nil || st.Checkpoint.Events != 99 {
		t.Errorf("coalesced checkpoint = %+v, want the newest (events=99)", st.Checkpoint)
	}

	// A non-checkpoint record pins the checkpoint before it: no coalescing
	// across record types, order is preserved.
	j.AppendCheckpoint(Checkpoint{Time: 100, Events: 100})
	j.AppendState("streaming", "")
	j.AppendCheckpoint(Checkpoint{Time: 101, Events: 101})
	j.AppendCheckpoint(Checkpoint{Time: 102, Events: 102})
	j.Sync()
	st, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	// begin, ckpt(99), ckpt(100), state, ckpt(102).
	if st.Records != 5 || st.State != "streaming" {
		t.Errorf("after mixed appends: records=%d state=%q, want 5/streaming", st.Records, st.State)
	}
	if st.Checkpoint == nil || st.Checkpoint.Events != 102 {
		t.Errorf("latest checkpoint = %+v, want events=102", st.Checkpoint)
	}
	j.Close()
}

func BenchmarkRunlogAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench"+Ext)
	var m Metrics
	j, err := Create(path, Options{Policy: PolicyInterval, Metrics: &m})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	j.AppendBegin(testBegin())
	c := Checkpoint{
		Time: 123.456789, UE: 982451653, Seq: 31,
		Events: 1 << 20, TraceOffset: 123.456789,
		SinkBytes: 1 << 27, SinkLines: 1 << 20,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Events++
		j.AppendCheckpoint(c)
	}
}
