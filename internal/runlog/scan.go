package runlog

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Terminal run states: a journal whose last state record is one of these
// describes a finished run and is not a recovery candidate.
const (
	StateDone    = "done"
	StateStopped = "stopped"
	StateFailed  = "failed"
)

// RunState is everything a journal says about its run: the identity
// record, the latest checkpoint and state transition, and how the scan
// ended (clean EOF vs torn tail).
type RunState struct {
	// Path is the journal file.
	Path string
	// Begin is the run identity record, nil when the journal is corrupt
	// before the first record (such a journal is unrecoverable).
	Begin *Begin
	// Checkpoint is the last durable checkpoint, nil when none was written.
	Checkpoint *Checkpoint
	// State/Error are the last state transition ("" when none recorded —
	// the run died before leaving its initial state).
	State string
	Error string
	// Records counts valid records scanned.
	Records int
	// TornTail reports that the scan stopped at a torn or corrupt tail
	// rather than clean EOF (expected after a crash).
	TornTail bool
	// Offset is the byte length of the valid record prefix — where
	// OpenResume truncates before appending.
	Offset int64
}

// Terminal reports whether the journal's run already finished.
func (st *RunState) Terminal() bool {
	switch st.State {
	case StateDone, StateStopped, StateFailed:
		return true
	}
	return false
}

// Load scans a journal file, tolerating a torn tail: it reads frames until
// EOF, a short frame, an oversized length or a CRC mismatch, and folds the
// valid prefix into a RunState.
func Load(path string) (*RunState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runlog: opening journal %s: %w", path, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("runlog: reading journal %s: %w", path, err)
	}

	st := &RunState{Path: path}
	off := 0
	for {
		if off == len(data) {
			break // clean EOF
		}
		if len(data)-off < 8 {
			st.TornTail = true
			break
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxRecord || off+8+int(n) > len(data) {
			st.TornTail = true
			break
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			st.TornTail = true
			break
		}
		var rec wireRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			// A framed record that is not valid JSON means a writer bug,
			// not a torn tail, but recovery-wise it ends the journal too.
			st.TornTail = true
			break
		}
		st.apply(&rec)
		st.Records++
		off += 8 + int(n)
	}
	st.Offset = int64(off)
	return st, nil
}

func (st *RunState) apply(rec *wireRecord) {
	switch rec.Rec {
	case "begin":
		if st.Begin == nil {
			st.Begin = rec.Begin
		}
	case "ckpt":
		st.Checkpoint = &Checkpoint{
			Time: rec.T, UE: rec.UE, Seq: rec.Seq,
			Events: rec.Events, SinkBytes: rec.Bytes,
		}
	case "state":
		st.State, st.Error = rec.State, rec.Error
	}
}

// OpenResume loads a journal, truncates its torn tail and reopens it for
// appending, so a recovered run keeps journaling into the same file.
func OpenResume(path string, o Options) (*Journal, *RunState, error) {
	st, err := Load(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("runlog: reopening journal %s: %w", path, err)
	}
	if err := f.Truncate(st.Offset); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("runlog: truncating torn tail of %s: %w", path, err)
	}
	if _, err := f.Seek(st.Offset, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("runlog: seeking journal %s: %w", path, err)
	}
	return newJournal(f, path, o), st, nil
}

// Ext is the journal filename extension; a run's journal lives at
// <dir>/<run-id>.runlog.
const Ext = ".runlog"

// ScanDir loads every *.runlog journal in dir, sorted by filename.
// Per-file parse results (including corrupt-before-begin journals, which
// come back with Begin == nil) are in the slice; only a directory read
// error fails the scan.
func ScanDir(dir string) ([]*RunState, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("runlog: scanning %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), Ext) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var out []*RunState
	for _, name := range names {
		st, err := Load(filepath.Join(dir, name))
		if err != nil {
			// Unreadable file: surface as an unrecoverable entry.
			st = &RunState{Path: filepath.Join(dir, name), TornTail: true}
		}
		out = append(out, st)
	}
	return out, nil
}
