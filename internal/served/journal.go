package served

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"time"

	"cptgpt/internal/runlog"
	"cptgpt/internal/scenario"
)

// Journal checkpoint cadence defaults: a checkpoint lands at least every
// CheckpointEvents released events, and (tested every 16 events so the
// hot path stays clock-free) after CheckpointInterval of wall time.
const (
	DefaultCheckpointEvents   = 4096
	DefaultCheckpointInterval = time.Second
)

// openJournal attaches a write-ahead journal to a newly accepted run.
// Journaling is best-effort by design: any failure here (unwritable
// directory, full disk) logs a warning and leaves the run unjournaled
// rather than failing the start — durability degrades, traffic
// generation does not.
func (s *Server) openJournal(r *run) {
	id := r.begin.RunID
	if err := os.MkdirAll(s.opts.JournalDir, 0o755); err != nil {
		s.log.Warnw("run journal unavailable", "run", id, "err", err)
		return
	}
	spec, err := json.Marshal(r.spec)
	if err != nil {
		s.log.Warnw("run journal unavailable", "run", id, "err", err)
		return
	}
	path := filepath.Join(s.opts.JournalDir, id+runlog.Ext)
	j, err := runlog.Create(path, s.journalOpts(id))
	if err != nil {
		s.log.Warnw("run journal unavailable", "run", id, "err", err)
		return
	}
	// The write-ahead contract: the run's identity record — the very value
	// the run was built from — is durable before the run does any work.
	r.begin.Spec = spec
	j.AppendBegin(r.begin)
	j.Sync()
	// The run may already be published (healthz reads journals of live
	// runs under r.mu), so the assignment takes the run lock.
	r.mu.Lock()
	r.journal = j
	r.jpath = path
	r.mu.Unlock()
}

// journalOpts is the shared runlog configuration: every journal feeds the
// same metrics block (behind the cptserved_journal_* series) and logs its
// own degradation.
func (s *Server) journalOpts(runID string) runlog.Options {
	return runlog.Options{
		Metrics: &s.journalM,
		OnError: func(err error) {
			s.log.Warnw("run journal degraded to memory-only", "run", runID, "err", err)
		},
	}
}

// removeJournal deletes the run's journal file. Called when the run's
// history leaves the daemon (DELETE drain, retention eviction): a run the
// operator discarded must not resurrect at the next startup.
func (r *run) removeJournal() {
	if r.jpath != "" {
		os.Remove(r.jpath)
	}
}

// ckptTap interposes between the pacer and the sink, appending a journal
// checkpoint at the run's cadence. A checkpoint names the merge key of
// the newest event the sink durably holds, so recovery can fast-forward
// the regenerated stream past it and replay only the lost tail. Everything
// but Next is the pacer's own — the sinks find its optional methods
// (AppendUEID, OnIdle) on the tap as they would on the pacer.
type ckptTap struct {
	*scenario.Pacer
	j        *runlog.Journal
	base     int64 // events released by previous incarnations
	every    int64
	interval time.Duration

	// cursor, when the sink has one (file sinks, closed-loop replay),
	// makes the sink's durable position part of each checkpoint: a file
	// sink flushes to stable storage first, and a cursor that cannot be
	// vouched for skips the checkpoint (the invariant "a checkpoint
	// implies a durable sink prefix" beats checkpoint freshness).
	cursor scenario.Checkpointer

	// trails marks a cursor that names a session (closed-loop replay):
	// its Events is the driver's contiguously applied absolute sequence,
	// checkpoints cover the newest server-acknowledged event rather than
	// the newest released one, and pending queues
	// released-but-unacknowledged events until a checkpoint can cover them.
	trails  bool
	seqBase uint64 // absolute sequence already applied before this incarnation
	pending []scenario.Event
	pendSeq uint64 // absolute sequence of pending[0]

	n     int64 // events released this incarnation
	lastN int64
	lastT time.Time
	prev  scenario.Event
}

// newCkptTap wires a tap for the run.
func newCkptTap(src *scenario.Pacer, r *run) *ckptTap {
	t := &ckptTap{
		Pacer:    src,
		j:        r.journal,
		base:     r.baseEvents(),
		every:    r.ckptEvery,
		interval: r.ckptInterval,
		lastT:    time.Now(),
	}
	if cp, ok := r.sink.(scenario.Checkpointer); ok {
		t.cursor = cp
		// Asked before the first event, a sink that tracks a session
		// already has a position: the sequence a resumed run starts past.
		if cur, ok := cp.Cursor(); ok && cur.Session != 0 {
			t.trails, t.seqBase = true, uint64(cur.Events)
		}
	}
	return t
}

// Next releases the source's next event, checkpointing first when the
// cadence is due — so a checkpoint only ever covers events the sink has
// fully consumed (the sink finished writing event k before the single
// consumer pulls event k+1).
func (t *ckptTap) Next() (scenario.Event, bool) {
	e, ok := t.Pacer.Next()
	if !ok {
		if t.n > 0 {
			t.checkpoint()
		}
		return e, ok
	}
	if t.n > 0 && t.due() {
		t.checkpoint()
	}
	t.n++
	t.prev = e
	if t.trails {
		if len(t.pending) == 0 {
			t.pendSeq = t.seqBase + uint64(t.n)
		}
		t.pending = append(t.pending, e)
	}
	return e, true
}

func (t *ckptTap) due() bool {
	if t.n-t.lastN >= t.every {
		return true
	}
	return t.n&15 == 0 && time.Since(t.lastT) >= t.interval
}

func (t *ckptTap) checkpoint() {
	key, n := t.prev, t.base+t.n
	var sinkBytes int64
	if t.cursor != nil {
		cur, ok := t.cursor.Cursor()
		if !ok {
			return
		}
		sinkBytes = cur.Bytes
		if t.trails {
			a := uint64(cur.Events)
			if len(t.pending) == 0 || a < t.pendSeq {
				return // nothing newly acknowledged since the last cover
			}
			drop := min(a-t.pendSeq+1, uint64(len(t.pending)))
			key = t.pending[drop-1]
			t.pending = t.pending[drop:]
			t.pendSeq += drop
			n = int64(t.pendSeq - 1)
		}
	}
	t.j.AppendCheckpoint(runlog.Checkpoint{Time: key.Time, UE: key.UE, Seq: key.Seq, Events: n, SinkBytes: sinkBytes})
	t.lastN = t.n
	t.lastT = time.Now()
}

// countingWriter tracks the absolute sink byte offset — seeded with the
// resumed durable prefix length on recovery, so checkpoints always carry
// whole-file cursors.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
