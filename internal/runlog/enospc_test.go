package runlog

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// enospcFile wraps a real journal file and starts failing writes with
// ENOSPC after failAfter bytes — including the realistic mid-record
// partial write, where the kernel accepts part of a buffer and then the
// filesystem runs out of space.
type enospcFile struct {
	f         *os.File
	failAfter int
	written   int
	syncFail  bool
}

func (e *enospcFile) Write(p []byte) (int, error) {
	room := e.failAfter - e.written
	if room <= 0 {
		return 0, syscall.ENOSPC
	}
	if len(p) <= room {
		n, err := e.f.Write(p)
		e.written += n
		return n, err
	}
	// Partial write: accept what fits, then report the device full. This
	// tears the tail frame on disk exactly the way a real ENOSPC does.
	n, err := e.f.Write(p[:room])
	e.written += n
	if err != nil {
		return n, err
	}
	return n, syscall.ENOSPC
}

func (e *enospcFile) Sync() error {
	if e.syncFail {
		return syscall.ENOSPC
	}
	return e.f.Sync()
}

func (e *enospcFile) Close() error { return e.f.Close() }

func newENOSPCJournal(t *testing.T, failAfter int, o Options) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.runlog")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	return newJournal(&enospcFile{f: f, failAfter: failAfter}, path, o), path
}

// TestJournalENOSPCDegrades pins the degrade contract on a full disk:
// the journal goes memory-only, Metrics.Errors increments once, OnError
// fires once, and the run-facing API keeps accepting appends as no-ops.
func TestJournalENOSPCDegrades(t *testing.T) {
	var m Metrics
	calls := 0
	j, _ := newENOSPCJournal(t, 0, Options{
		Metrics: &m,
		OnError: func(err error) {
			calls++
			if err == nil {
				t.Error("OnError invoked with nil error")
			}
		},
	})
	j.AppendState("generating", "")
	if !j.Degraded() {
		t.Fatal("journal not degraded after ENOSPC on an append")
	}
	// Post-degrade appends and syncs must be silent no-ops, not repeat
	// errors.
	j.AppendState("streaming", "")
	j.AppendCheckpoint(Checkpoint{Events: 10})
	j.Sync()
	if err := j.Close(); err != nil {
		t.Fatalf("Close after degrade: %v", err)
	}
	if got := m.Errors.Load(); got != 1 {
		t.Fatalf("Metrics.Errors = %d, want 1 (degrade counts once)", got)
	}
	if calls != 1 {
		t.Fatalf("OnError fired %d times, want 1", calls)
	}
}

// TestJournalENOSPCTornTail pins that a mid-record ENOSPC leaves a torn
// file that (a) loads as its valid prefix with TornTail set, and (b) does
// not grow after the degrade — later appends must not resurrect writing
// into a file whose tail is garbage.
func TestJournalENOSPCTornTail(t *testing.T) {
	var m Metrics
	// Measure one state record's framed size on an unconstrained journal,
	// then give the journal under test room for that frame plus a sliver
	// of the next, so the second append tears mid-frame.
	j, path := newENOSPCJournal(t, 1<<20, Options{Metrics: &m})
	j.AppendState("generating", "")
	full, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, path2 := newENOSPCJournal(t, int(full.Size())+5, Options{Metrics: &m})
	j2.AppendState("generating", "")
	if j2.Degraded() {
		t.Fatal("journal degraded before the disk filled")
	}
	j2.AppendCheckpoint(Checkpoint{Events: 7})
	if !j2.Degraded() {
		t.Fatal("journal not degraded by the mid-record ENOSPC")
	}
	tornSize, err := os.Stat(path2)
	if err != nil {
		t.Fatal(err)
	}
	if tornSize.Size() != full.Size()+5 {
		t.Fatalf("torn file is %d bytes, want %d (prefix + 5 partial bytes)",
			tornSize.Size(), full.Size()+5)
	}

	// Appends after the degrade must leave the file untouched.
	j2.AppendState("streaming", "")
	j2.AppendCheckpoint(Checkpoint{Events: 99})
	j2.Sync()
	j2.Close()
	after, err := os.Stat(path2)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != tornSize.Size() {
		t.Fatalf("degraded journal grew from %d to %d bytes", tornSize.Size(), after.Size())
	}

	// The torn file still loads: valid prefix, torn tail flagged.
	st, err := Load(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !st.TornTail {
		t.Fatal("Load did not flag the torn tail")
	}
	if st.Records != 1 || st.State != "generating" {
		t.Fatalf("prefix = %d records, state %q; want 1 record, state generating",
			st.Records, st.State)
	}
	if st.Checkpoint != nil {
		t.Fatal("the torn checkpoint must not survive the scan")
	}
}

// TestJournalENOSPCOnSync pins that a failing fsync (metadata cannot be
// made durable) degrades the journal just like a failing write.
func TestJournalENOSPCOnSync(t *testing.T) {
	var m Metrics
	path := filepath.Join(t.TempDir(), "run.runlog")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	j := newJournal(&enospcFile{f: f, failAfter: 1 << 20, syncFail: true},
		path, Options{Metrics: &m})
	j.AppendState("generating", "")
	j.Sync() // the fsync runs here (or on the deferred fsync), not in the append
	if !j.Degraded() {
		t.Fatal("journal not degraded by failing fsync")
	}
	if got := m.Errors.Load(); got != 1 {
		t.Fatalf("Metrics.Errors = %d, want 1", got)
	}
	j.Close()
}
