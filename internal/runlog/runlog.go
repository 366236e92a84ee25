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
// Durability is a policy knob: PolicyAlways fsyncs every append,
// PolicyInterval (the default) flushes and fsyncs at most once per
// interval, PolicyOff flushes to the OS on the interval but never fsyncs —
// so even "off" loses at most one interval of records to a process crash
// (only a machine crash can lose more).
//
// A journal never fails its run: any write, flush or sync error degrades
// the journal to memory-only (appends become no-ops), invokes the OnError
// hook once and counts into Metrics.Errors. The run carries on; only its
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

// Policy selects the journal's durability level.
type Policy int

const (
	// PolicyInterval flushes and fsyncs at most once per interval (the
	// default): a crash loses at most one interval of checkpoints, which
	// recovery regenerates deterministically.
	PolicyInterval Policy = iota
	// PolicyAlways fsyncs every append — maximum durability, one fsync per
	// record.
	PolicyAlways
	// PolicyOff never fsyncs; records are still flushed to the OS on the
	// interval, so only a machine (not process) crash can lose them.
	PolicyOff
)

// ParsePolicy parses "always", "interval" or "off" ("" means interval).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "interval":
		return PolicyInterval, nil
	case "always":
		return PolicyAlways, nil
	case "off":
		return PolicyOff, nil
	}
	return 0, fmt.Errorf("runlog: unknown fsync policy %q (want always, interval or off)", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyOff:
		return "off"
	default:
		return "interval"
	}
}

// DefaultInterval is the PolicyInterval/PolicyOff flush cadence.
const DefaultInterval = 100 * time.Millisecond

// maxRecord bounds a frame's payload length; anything larger in a header
// is treated as tail corruption.
const maxRecord = 1 << 20

// highWater and hardCap bound the in-memory frame buffer. Past highWater
// an append kicks the background flusher without waiting on it; past
// hardCap (disk persistently slower than the producer) the append writes
// through inline — real backpressure, but only in that extreme.
const (
	highWater = 1 << 20
	hardCap   = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Metrics aggregates journal activity across every journal that shares it
// (the daemon registers these as cptserved_journal_* series). All fields
// are atomics.
type Metrics struct {
	// Appends counts records appended; Bytes the framed bytes they carried.
	Appends atomic.Int64
	Bytes   atomic.Int64
	// Fsyncs counts file syncs issued by the durability policy.
	Fsyncs atomic.Int64
	// Errors counts journals degraded to memory-only by a disk error.
	Errors atomic.Int64
}

// Options configures a Journal.
type Options struct {
	// Policy is the durability policy (zero value: PolicyInterval).
	Policy Policy
	// Interval is the flush/fsync cadence for PolicyInterval and the flush
	// cadence for PolicyOff (0 = DefaultInterval).
	Interval time.Duration
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
	Precision   string          `json:"precision,omitempty"`
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
// checkpoint covers; the sink cursor fields say how much sink output is
// durable for events up to and including that key.
type Checkpoint struct {
	// Time/UE/Seq are the merge key of the last covered event.
	Time float64
	UE   uint64
	Seq  uint32
	// Events is the total released-event count up to the key (cumulative
	// across resumed incarnations).
	Events int64
	// TraceOffset re-anchors the pacer: trace time resumes from here.
	TraceOffset float64
	// SinkBytes/SinkLines locate the jsonl/csv sink cursor: the file's
	// durable byte length and data-line count for events ≤ the key.
	SinkBytes int64
	SinkLines int64
	// ReplayApplied is the closed-loop replay sequence number the server
	// has contiguously applied (equals Events for that sink).
	ReplayApplied int64
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
	T       float64 `json:"t,omitempty"`
	UE      uint64  `json:"ue,omitempty"`
	Seq     uint32  `json:"seq,omitempty"`
	Events  int64   `json:"events,omitempty"`
	Off     float64 `json:"off,omitempty"`
	Bytes   int64   `json:"bytes,omitempty"`
	Lines   int64   `json:"lines,omitempty"`
	Applied int64   `json:"applied,omitempty"`
}

// journalFile is the slice of *os.File the journal needs — the seam the
// degradation tests inject failing writers through.
type journalFile interface {
	io.Writer
	Sync() error
	Close() error
}

// Journal is one run's append-side write-ahead log. Appends only frame and
// buffer under the mutex; file writes and fsyncs happen on a background
// flusher ticking at the policy interval (or inline for PolicyAlways), so
// the hot path never waits on the disk.
type Journal struct {
	mu       sync.Mutex // guards buffered/spare/scratch/degraded/f-identity
	wmu      sync.Mutex // serializes file writes+syncs in steal order
	f        journalFile
	buffered []byte   // pending frames not yet written to f
	ckptOff  int      // offset of a coalescable trailing ckpt frame, -1 none
	spares   [][]byte // recycled steal-cycle buffers (flushes overlap)
	scratch  []byte
	policy   Policy
	interval time.Duration
	degraded bool
	m        *Metrics
	onError  func(error)
	path     string
	stop     chan struct{}
	kick     chan struct{}
	flusher  sync.WaitGroup
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
	if o.Interval <= 0 {
		o.Interval = DefaultInterval
	}
	j := &Journal{
		f: f, path: path,
		ckptOff: -1,
		policy:  o.Policy, interval: o.Interval,
		m: o.Metrics, onError: o.OnError,
		stop: make(chan struct{}),
		kick: make(chan struct{}, 1),
	}
	if j.policy != PolicyAlways {
		j.flusher.Add(1)
		go j.flushLoop(j.stop)
	}
	return j
}

// flushLoop is the background flusher for the interval policies: it writes
// buffered frames to the OS every interval, fsyncing under PolicyInterval.
func (j *Journal) flushLoop(stop <-chan struct{}) {
	defer j.flusher.Done()
	t := time.NewTicker(j.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			j.flush(j.policy == PolicyInterval)
		case <-j.kick:
			j.flush(false)
		case <-stop:
			return
		}
	}
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

// degrade demotes the journal to memory-only after a disk error. The file
// itself is left for Close (it may be mid-write on the flusher); appends
// and flushes become no-ops immediately. Caller holds j.mu.
func (j *Journal) degrade(err error) {
	if j.degraded {
		return
	}
	j.degraded = true
	j.buffered = nil
	if j.m != nil {
		j.m.Errors.Add(1)
	}
	if j.onError != nil {
		j.onError(err)
	}
}

// append frames payload and buffers it; PolicyAlways additionally flushes
// and fsyncs inline. A checkpoint (ckpt) that lands while the previous
// checkpoint is still unflushed replaces it in place — only the newest
// progress marker matters for recovery, so coalescing loses nothing and
// keeps a fast producer from outrunning the disk.
func (j *Journal) append(payload []byte, ckpt bool) {
	sp := tracez.Begin(tracez.StageRunlogAppend, "")
	j.mu.Lock()
	if j.degraded {
		j.mu.Unlock()
		sp.End(0, "degraded")
		return
	}
	if ckpt && j.ckptOff >= 0 {
		j.buffered = j.buffered[:j.ckptOff]
	}
	if ckpt {
		j.ckptOff = len(j.buffered)
	} else {
		j.ckptOff = -1
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	j.buffered = append(j.buffered, hdr[:]...)
	j.buffered = append(j.buffered, payload...)
	if j.m != nil {
		j.m.Appends.Add(1)
		j.m.Bytes.Add(int64(len(payload) + len(hdr)))
	}
	buffered := len(j.buffered)
	j.mu.Unlock()
	switch {
	case j.policy == PolicyAlways:
		j.flush(true)
	case buffered >= hardCap:
		j.flush(false)
	case buffered >= highWater:
		select {
		case j.kick <- struct{}{}:
		default:
		}
	}
	sp.End(int64(len(payload)), "")
}

// flush steals the buffered frames and writes them to the file, fsyncing
// when sync is set. wmu keeps concurrent flushes in steal order, so the
// file always holds a prefix of the append sequence.
func (j *Journal) flush(sync bool) {
	j.wmu.Lock()
	defer j.wmu.Unlock()
	j.mu.Lock()
	buf := j.buffered
	j.buffered = nil
	j.ckptOff = -1 // the trailing ckpt is leaving the buffer
	if n := len(j.spares); n > 0 {
		j.buffered = j.spares[n-1][:0]
		j.spares = j.spares[:n-1]
	}
	f := j.f
	if j.degraded || f == nil {
		j.mu.Unlock()
		return
	}
	j.mu.Unlock()

	ok := true
	if len(buf) > 0 {
		if _, err := f.Write(buf); err != nil {
			j.mu.Lock()
			j.degrade(err)
			j.mu.Unlock()
			ok = false
		}
	}
	if ok && sync {
		if err := f.Sync(); err != nil {
			j.mu.Lock()
			j.degrade(err)
			j.mu.Unlock()
			ok = false
		}
		if ok && j.m != nil {
			j.m.Fsyncs.Add(1)
		}
	}
	j.mu.Lock()
	if buf != nil && len(j.spares) < 4 {
		j.spares = append(j.spares, buf[:0])
	}
	j.mu.Unlock()
}

// Sync flushes buffered records and fsyncs (unless PolicyOff) — the
// barrier a checkpoint uses before declaring its cursor durable.
func (j *Journal) Sync() {
	j.flush(j.policy != PolicyOff)
}

// Close stops the flusher, flushes remaining records and closes the
// journal file (fsyncing unless PolicyOff). Safe to call more than once.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.stop != nil {
		close(j.stop)
		j.stop = nil
	}
	j.mu.Unlock()
	j.flusher.Wait()
	j.flush(j.policy != PolicyOff)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
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
	j.append(payload, false)
}

// AppendState writes a run state transition ("" error for clean states).
func (j *Journal) AppendState(state, errMsg string) {
	payload, err := json.Marshal(wireRecord{
		Rec: "state", State: state, Error: errMsg, At: time.Now().UnixNano(),
	})
	if err != nil {
		return
	}
	j.append(payload, false)
}

// AppendCheckpoint writes a progress checkpoint. This is the journal's hot
// path: the payload is built with strconv appends, no reflection.
func (j *Journal) AppendCheckpoint(c Checkpoint) {
	buf := j.takeScratch()
	buf = append(buf, `{"rec":"ckpt","t":`...)
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
	buf = append(buf, `,"off":`...)
	buf = strconv.AppendFloat(buf, c.TraceOffset, 'g', -1, 64)
	if c.SinkBytes != 0 {
		buf = append(buf, `,"bytes":`...)
		buf = strconv.AppendInt(buf, c.SinkBytes, 10)
	}
	if c.SinkLines != 0 {
		buf = append(buf, `,"lines":`...)
		buf = strconv.AppendInt(buf, c.SinkLines, 10)
	}
	if c.ReplayApplied != 0 {
		buf = append(buf, `,"applied":`...)
		buf = strconv.AppendInt(buf, c.ReplayApplied, 10)
	}
	buf = append(buf, '}')
	j.append(buf, true)
	j.putScratch(buf)
}

// takeScratch/putScratch reuse one payload buffer across checkpoints (the
// mutex makes contention rare; a miss just allocates).
func (j *Journal) takeScratch() []byte {
	j.mu.Lock()
	b := j.scratch
	j.scratch = nil
	j.mu.Unlock()
	return b[:0]
}

func (j *Journal) putScratch(b []byte) {
	j.mu.Lock()
	if j.scratch == nil {
		j.scratch = b
	}
	j.mu.Unlock()
}
