// Package runlog is the write-ahead run journal behind crash-safe
// cptserved runs: an append-only, CRC-framed, torn-tail-tolerant log per
// run recording the submitted spec, periodic progress checkpoints and
// state transitions, so a daemon restart can resume an interrupted run
// exactly where its sinks left off.
//
// On-disk format: a journal is a sequence of framed records, each
//
//	u32le payload length | u32le CRC-32C of payload | payload (JSON)
//
// A crash can only tear the tail — records are appended, never rewritten —
// so recovery reads frames until EOF, a short frame, an oversized length or
// a CRC mismatch, and treats everything before that point as the journal.
// OpenResume truncates the torn tail before appending, keeping the file a
// clean record sequence across any number of crashes.
//
// Durability has one rule. Every record is written to the file as it is
// appended, with one write(2), so a process crash loses nothing that was
// appended. Sync fsyncs — the barrier the caller puts after the begin
// record and after the terminal state; Close fsyncs too. Any other record
// is fsynced within 100 ms of its append, so a machine crash loses at most
// the last 100 ms of records. An idle journal issues no fsyncs.
//
// A journal never fails its run: any write or sync error degrades the
// journal to memory-only (appends become no-ops), invokes the OnError hook
// once and counts into Metrics.Errors. The run carries on; only its
// crash-recoverability is lost.
//
// Concurrency: a Journal is safe for concurrent appends, though runs
// append from a single goroutine in practice. Metrics fields are atomics,
// shared across journals and readable at any time.
package runlog

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cptgpt/internal/tracez"
)

// maxRecord bounds a frame's payload length; anything larger in a header
// is treated as tail corruption.
const maxRecord = 1 << 20

// frameHdr is the length of a frame header: payload length, then CRC.
const frameHdr = 8

// syncDelay bounds how long a written record waits for its fsync. It is a
// variable only so a test can make the deferred fsync race Close.
var syncDelay = 100 * time.Millisecond

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Metrics aggregates journal activity across every journal that shares it
// (the daemon registers these as cptserved_journal_* series). All fields
// are atomics.
type Metrics struct {
	// Appends counts records appended; Bytes the framed bytes they carried.
	Appends atomic.Int64
	Bytes   atomic.Int64
	// Fsyncs counts file syncs: the barriers plus at most one per 100 ms
	// of appends, none while idle.
	Fsyncs atomic.Int64
	// Errors counts journals degraded to memory-only by a disk error.
	Errors atomic.Int64
}

// Options configures a Journal.
type Options struct {
	// Metrics, when non-nil, receives the journal's activity counters.
	Metrics *Metrics
	// OnError, when non-nil, is invoked once with the disk error that
	// degraded the journal to memory-only.
	OnError func(error)
}

// Begin is a run's identity record: everything needed to reconstruct and
// resume the run after a crash, written as the journal's first record.
type Begin struct {
	RunID    string `json:"run_id"`
	Scenario string `json:"scenario"`
	// Spec is the full resolved scenario spec (JSON), so recovery does not
	// depend on the builtin registry staying stable across versions.
	Spec        json.RawMessage `json:"spec"`
	Sink        string          `json:"sink"`
	Out         string          `json:"out,omitempty"`
	Addr        string          `json:"addr,omitempty"`
	ClosedLoop  bool            `json:"closed_loop,omitempty"`
	UEs         int             `json:"ues,omitempty"`
	Compression float64         `json:"compression,omitempty"`
	Precision   string          `json:"precision,omitempty"` // "f32" for a run with a cptgpt source; older journals: "" or "f64"
	Speculative string          `json:"speculative,omitempty"`
	DraftTokens int             `json:"draft_tokens,omitempty"`
	Parallelism int             `json:"parallelism,omitempty"`
	BatchSize   int             `json:"batch_size,omitempty"`
	// SessionID is the closed-loop replay session key, fixed at submission
	// so a resumed run can rejoin the server-side session.
	SessionID uint64 `json:"session_id,omitempty"`
	// Resource budgets, journaled so a resumed run keeps the envelope it
	// was admitted under. MaxWallNanos is the total wall-clock budget;
	// recovery re-arms the remainder.
	MaxSpillBytes int64     `json:"max_spill_bytes,omitempty"`
	MaxEvents     int64     `json:"max_events,omitempty"`
	MaxWallNanos  int64     `json:"max_wall_nanos,omitempty"`
	StartedAt     time.Time `json:"started_at"`
}

// Checkpoint is a progress record: the durable high-water mark recovery
// resumes from. Key (Time, UE, Seq) is the merge key of the last event the
// checkpoint covers; the pacer's schedule resumes at its Time.
type Checkpoint struct {
	// Time/UE/Seq are the merge key of the last covered event.
	Time float64
	UE   uint64
	Seq  uint32
	// Events is the number of events up to the key that the sink durably
	// holds, cumulative across resumed incarnations: a file sink's data
	// lines, the sequence closed-loop replay's server has contiguously
	// applied, the released events of a sink without a cursor.
	Events int64
	// SinkBytes is a file sink's durable byte length.
	SinkBytes int64
}

// wireRecord is the JSON payload shape shared by every record type;
// Rec discriminates ("begin", "ckpt", "state"). Checkpoint fields are
// inlined flat so the hot append path can build them without reflection.
type wireRecord struct {
	Rec   string `json:"rec"`
	Begin *Begin `json:"begin,omitempty"`

	// state
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	At    int64  `json:"at,omitempty"`

	// ckpt (flat)
	T      float64 `json:"t,omitempty"`
	UE     uint64  `json:"ue,omitempty"`
	Seq    uint32  `json:"seq,omitempty"`
	Events int64   `json:"events,omitempty"`
	Bytes  int64   `json:"bytes,omitempty"`
}

// journalFile is the slice of *os.File the journal needs — the seam the
// degradation tests inject failing writers through.
type journalFile interface {
	io.Writer
	Sync() error
	Close() error
}

// Journal is one run's append-side write-ahead log. One mutex covers
// everything, each record's write(2) and each fsync included, so the
// deferred fsync can never land on a file Close has already closed.
type Journal struct {
	mu       sync.Mutex
	f        journalFile // nil once closed
	frame    []byte      // the record being framed, reused across appends
	dirty    bool        // records written since the last fsync
	timer    *time.Timer // the deferred fsync, pending only while dirty
	degraded bool
	m        *Metrics
	onError  func(error)
	path     string
}

// Create opens a fresh journal at path (truncating any existing file).
func Create(path string, o Options) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runlog: creating journal %s: %w", path, err)
	}
	return newJournal(f, path, o), nil
}

func newJournal(f journalFile, path string, o Options) *Journal {
	return &Journal{f: f, path: path, m: o.Metrics, onError: o.OnError}
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Degraded reports whether a disk error has demoted the journal to
// memory-only (appends are dropped; the run itself is unaffected).
func (j *Journal) Degraded() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.degraded
}

// degrade demotes the journal to memory-only after a disk error: appends
// and syncs become no-ops, and the file is left for Close. Caller holds
// j.mu.
func (j *Journal) degrade(err error) {
	if j.degraded {
		return
	}
	j.degraded = true
	if j.m != nil {
		j.m.Errors.Add(1)
	}
	if j.onError != nil {
		j.onError(err)
	}
}

// startFrame returns the reusable frame buffer holding an empty header,
// ready for the payload to be appended. Caller holds j.mu.
func (j *Journal) startFrame() []byte {
	return append(j.frame[:0], make([]byte, frameHdr)...)
}

// write fills in the header of frame (built by startFrame plus a payload)
// and writes the record to the file, arming the deferred fsync unless one
// is pending. It ends sp, which the caller began before taking j.mu.
// Caller holds j.mu.
func (j *Journal) write(frame []byte, sp tracez.Active) {
	j.frame = frame
	if j.degraded || j.f == nil {
		sp.End(0, "degraded")
		return
	}
	payload := frame[frameHdr:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := j.f.Write(frame); err != nil {
		j.degrade(err)
		sp.End(0, "degraded")
		return
	}
	if j.m != nil {
		j.m.Appends.Add(1)
		j.m.Bytes.Add(int64(len(frame)))
	}
	if !j.dirty {
		j.dirty = true
		if j.timer == nil {
			j.timer = time.AfterFunc(syncDelay, j.Sync)
		} else {
			j.timer.Reset(syncDelay)
		}
	}
	sp.End(int64(len(payload)), "")
}

// sync fsyncs the file if records were written since the last fsync.
// Caller holds j.mu.
func (j *Journal) sync() {
	if !j.dirty || j.degraded {
		return
	}
	j.dirty = false
	j.timer.Stop()
	if err := j.f.Sync(); err != nil {
		j.degrade(err)
		return
	}
	if j.m != nil {
		j.m.Fsyncs.Add(1)
	}
}

// Sync fsyncs every record appended so far — the barrier after the begin
// record and after the terminal state. It is also the deferred fsync.
func (j *Journal) Sync() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.sync()
}

// Close fsyncs the remaining records and closes the journal file. Safe to
// call more than once.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	j.sync()
	err := j.f.Close()
	j.f = nil
	return err
}

// AppendBegin writes the run's identity record.
func (j *Journal) AppendBegin(b Begin) {
	payload, err := json.Marshal(wireRecord{Rec: "begin", Begin: &b})
	if err != nil {
		j.mu.Lock()
		j.degrade(fmt.Errorf("runlog: encoding begin record: %w", err))
		j.mu.Unlock()
		return
	}
	j.appendPayload(payload)
}

// AppendState writes a run state transition ("" error for clean states).
func (j *Journal) AppendState(state, errMsg string) {
	payload, err := json.Marshal(wireRecord{
		Rec: "state", State: state, Error: errMsg, At: time.Now().UnixNano(),
	})
	if err != nil {
		return
	}
	j.appendPayload(payload)
}

func (j *Journal) appendPayload(payload []byte) {
	sp := tracez.Begin(tracez.StageRunlogAppend, "")
	j.mu.Lock()
	defer j.mu.Unlock()
	j.write(append(j.startFrame(), payload...), sp)
}

// AppendCheckpoint writes a progress checkpoint. This is the journal's hot
// path: the payload is built with strconv appends straight into the
// reusable frame, no reflection.
func (j *Journal) AppendCheckpoint(c Checkpoint) {
	sp := tracez.Begin(tracez.StageRunlogAppend, "")
	j.mu.Lock()
	defer j.mu.Unlock()
	buf := append(j.startFrame(), `{"rec":"ckpt","t":`...)
	buf = strconv.AppendFloat(buf, c.Time, 'g', -1, 64)
	if c.UE != 0 {
		buf = append(buf, `,"ue":`...)
		buf = strconv.AppendUint(buf, c.UE, 10)
	}
	if c.Seq != 0 {
		buf = append(buf, `,"seq":`...)
		buf = strconv.AppendUint(buf, uint64(c.Seq), 10)
	}
	buf = append(buf, `,"events":`...)
	buf = strconv.AppendInt(buf, c.Events, 10)
	if c.SinkBytes != 0 {
		buf = append(buf, `,"bytes":`...)
		buf = strconv.AppendInt(buf, c.SinkBytes, 10)
	}
	buf = append(buf, '}')
	j.write(buf, sp)
}
