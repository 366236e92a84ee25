package scenario

import (
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"cptgpt/internal/trace"
	"cptgpt/internal/tracez"
)

// fileSink writes the jsonl and csv trace files (event-interleaved: output
// arrives in time order across UEs, so per-UE grouping would need unbounded
// buffering) — one open-wrap-drain-close body for cptscenario and the
// daemon alike. The writer chain is flushed and closed before Consume
// returns, so a stopped run's file is complete up to its last released
// event, never cut mid-line.
//
// A resumed run's file is cut back to the cursor's durable length and
// appended to; with the bit-identical regenerated suffix the final file
// equals an uninterrupted run's byte for byte (exactly-once). Gzip
// forecloses the byte arithmetic, so a ".gz" path has no cursor and
// restarts from scratch.
type fileSink struct {
	cfg  SinkConfig
	from Cursor // where a resumed Consume picks up; zero = a fresh file

	enc *sinkEncoder // set while Consume runs, for Checkpoint
}

func (s *fileSink) gz() bool { return strings.HasSuffix(s.cfg.Out, ".gz") }

// Resume accepts a cursor whose durable prefix is still on disk.
func (s *fileSink) Resume(c Cursor) error {
	if s.gz() || c.Bytes <= 0 {
		return errors.New("sink has no byte cursor to resume from")
	}
	fi, err := os.Stat(s.cfg.Out)
	if err != nil {
		return fmt.Errorf("sink file lost: %w", err)
	}
	if fi.Size() < c.Bytes {
		return fmt.Errorf("sink file %s lost its durable prefix (%d of %d bytes left)", s.cfg.Out, fi.Size(), c.Bytes)
	}
	s.from = c
	return nil
}

// open creates the output file, or reopens a resumed one cut to its cursor.
func (s *fileSink) open() (*os.File, error) {
	if s.from.Bytes == 0 {
		return os.Create(s.cfg.Out)
	}
	f, err := os.OpenFile(s.cfg.Out, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if err = f.Truncate(s.from.Bytes); err == nil {
		_, err = f.Seek(s.from.Bytes, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Checkpoint puts a mark behind the events handed to the encoder so far
// and returns at once. The encoder flushes at the mark and reads the
// file's length; the syncer fsyncs the file and only then commits that
// length, so a committed cursor always implies a durable prefix holding
// exactly the events consumed before the call (the caller, which fed
// them, counts them). Where there is no byte position to vouch for
// (".gz", stdout, no counting layer) it commits the zero cursor before it
// returns, and a resume starts the file over.
func (s *fileSink) Checkpoint(commit func(c Cursor, ok bool)) {
	switch enc := s.enc; {
	case enc == nil:
		commit(Cursor{}, false)
	case enc.syncer == nil:
		commit(Cursor{}, true)
	default:
		enc.mark(commit)
	}
}

// Cursor is Checkpoint, waited for.
func (s *fileSink) Cursor() (Cursor, bool) {
	type committed struct {
		c  Cursor
		ok bool
	}
	done := make(chan committed, 1)
	s.Checkpoint(func(c Cursor, ok bool) { done <- committed{c, ok} })
	r := <-done
	return r.c, r.ok
}

// Consume pulls the source on the caller's goroutine and encodes on one
// other (sinkEncoder), which owns the eventWriter and every writer below
// it until the close below; a file with a byte cursor is fsynced on a
// third (fileSyncer).
func (s *fileSink) Consume(_ context.Context, src EventSource) (Result, error) {
	var f *os.File
	w := s.cfg.Stdout
	if s.cfg.Out != "" {
		var err error
		if f, err = s.open(); err != nil {
			return nil, err
		}
		// The success path checks Close below; closing twice is harmless.
		defer f.Close()
		w = f
	}
	var written func() int64
	if s.cfg.Below != nil {
		w, written = s.cfg.Below(w, s.from.Bytes)
	}
	var gzw *gzip.Writer
	if s.gz() {
		gzw = gzip.NewWriter(w)
		w = gzw
	}
	// A resumed csv file already has its header on disk.
	ew, err := newEventWriter(w, s.cfg.Name, src, s.from.Bytes == 0)
	if err != nil {
		return nil, err
	}
	lw := ew.lw
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	defer func() { sp.End(int64(lw.Count()), s.cfg.Name) }()
	var syncer *fileSyncer
	if f != nil && written != nil && gzw == nil {
		syncer = startSyncer(f, s.cfg.Name)
	}
	enc := startEncoder(ew, syncer, written)
	s.enc = enc
	defer func() {
		enc.close() // joins the encoder and the syncer on every path, a panicking src.Next's too
		s.enc = nil
	}()
	for {
		e, ok := src.Next()
		if !ok || !enc.add(e) {
			break
		}
	}
	// The encoder's first error is the one a serial loop would have
	// stopped at, before the source could report its own.
	if err = enc.close(); err == nil {
		err = src.Err()
	}
	if ferr := lw.Flush(); err == nil {
		err = ferr
	}
	if gzw != nil {
		if cerr := gzw.Close(); err == nil {
			err = cerr
		}
	}
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	return fileResult{Events: s.from.Events + int64(lw.Count()), Out: s.cfg.Out}, nil
}

// sinkBatch is how many events Consume hands the encoder at a time, and
// sinkBuffers how many batches exist: one filling on the consumer's side,
// the rest queued or encoding. On 2 cores, a 5000-UE flash-crowd stream
// into jsonl with a cursor every 4096 events ran within noise of itself
// from 256 to 2048 events per batch and 2 to 8 buffers, each 4–19 %
// faster than one goroutine in paired runs (medians); 512 × 4 is the
// middle of that range.
const (
	sinkBatch   = 512
	sinkBuffers = 4
)

// eventWriter writes scenario events as trace event lines: it renders each
// event's UE id through the source (UEIDAppender) into a buffer it reuses
// and hands the line's fields to a trace.LineWriter, which does all the
// encoding.
type eventWriter struct {
	lw       *trace.LineWriter
	appendID func(dst []byte, e Event) []byte
	id       []byte
}

// newEventWriter writes format "jsonl" or "csv" to w, with the csv column
// header first when header is set (a resumed file already has it).
func newEventWriter(w io.Writer, format string, src EventSource, header bool) (*eventWriter, error) {
	lw, err := trace.NewLineWriter(w, format, header)
	if err != nil {
		return nil, err
	}
	return &eventWriter{lw: lw, appendID: UEIDAppender(src)}, nil
}

func (ew *eventWriter) write(e Event) error {
	ew.id = ew.appendID(ew.id[:0], e)
	return ew.lw.Write(e.Time, ew.id, e.Device, e.Type)
}

// encJob is what the consumer queues for the encoder: a batch of events,
// or a checkpoint mark (commit set) behind the batches queued before it.
type encJob struct {
	evs    []Event
	commit func(Cursor, bool)
}

// sinkEncoder runs an eventWriter on its own goroutine, fed in order with
// batches of events by the consumer, so a file run's source and its
// encoding use two cores. Encoding stops at the first Write error — a
// failed block write or an unencodable event — which close reports.
type sinkEncoder struct {
	cur  []Event      // the batch being filled (consumer side)
	full chan encJob  // batches and marks to handle in order
	free chan []Event // encoded batches, back for refilling
	done chan struct{}

	syncer  *fileSyncer  // nil: no byte cursor
	written func() int64 // the file's length, for a mark

	failed atomic.Bool // set with err, for the consumer to stop early
	// Written by the encoder goroutine; read by the consumer after the join.
	err      error
	panicked string // the recovered panic, with the encoder's stack
}

// startEncoder starts the encoder goroutine; close stops and joins it and
// syncer. Both batch channels hold every buffer there is, so the encoder
// never blocks handing one back; the consumer waits for a free buffer, or
// behind queued marks, and the encoder for the syncer: that is the
// stream's backpressure. The encoder leaves its loop only when close
// closes full.
func startEncoder(ew *eventWriter, syncer *fileSyncer, written func() int64) *sinkEncoder {
	enc := &sinkEncoder{
		full:    make(chan encJob, sinkBuffers),
		free:    make(chan []Event, sinkBuffers),
		done:    make(chan struct{}),
		syncer:  syncer,
		written: written,
	}
	for range sinkBuffers - 1 {
		enc.free <- make([]Event, 0, sinkBatch)
	}
	enc.cur = make([]Event, 0, sinkBatch)
	go enc.run(ew)
	return enc
}

func (enc *sinkEncoder) run(ew *eventWriter) {
	defer close(enc.done)
	for j := range enc.full {
		if j.commit == nil {
			if !enc.failed.Load() {
				enc.encode(ew, j.evs)
			}
			enc.free <- j.evs[:0]
			continue
		}
		// A mark: every event before it has been written. One that cannot
		// be flushed still goes through the syncer, which commits marks in
		// order.
		m := syncMark{commit: j.commit}
		if !enc.failed.Load() && enc.flush(ew.lw) {
			m.ok, m.bytes = true, enc.written()
		}
		enc.syncer.marks <- m
		killPoint("queued")
	}
}

// encode writes one batch. A panic (in a source's UEID, say) stops the
// encoding and is raised again on the consumer's goroutine by close, where
// a serial sink would have raised it.
func (enc *sinkEncoder) encode(ew *eventWriter, b []Event) {
	defer enc.recoverPanic()
	for _, e := range b {
		if err := ew.write(e); err != nil {
			enc.err = err
			enc.failed.Store(true)
			return
		}
	}
}

// flush pushes the lines written so far to the writers below, at a mark.
// A failed block write sticks in the LineWriter, so the next write or the
// final flush reports it.
func (enc *sinkEncoder) flush(lw *trace.LineWriter) bool {
	defer enc.recoverPanic()
	return lw.Flush() == nil
}

func (enc *sinkEncoder) recoverPanic() {
	if p := recover(); p != nil {
		enc.panicked = fmt.Sprintf("scenario: panic in file sink encoder: %v\n%s", p, debug.Stack())
		enc.failed.Store(true)
	}
}

// add queues e and reports whether the consumer should carry on: false
// once the encoder has failed, which it learns a batch at a time.
func (enc *sinkEncoder) add(e Event) bool {
	enc.cur = append(enc.cur, e)
	if len(enc.cur) < sinkBatch {
		return true
	}
	enc.full <- encJob{evs: enc.cur}
	enc.cur = <-enc.free
	return !enc.failed.Load()
}

// send hands over the partial batch.
func (enc *sinkEncoder) send() {
	if len(enc.cur) > 0 {
		enc.full <- encJob{evs: enc.cur}
		enc.cur = <-enc.free
	}
}

// mark queues a checkpoint behind every event added so far.
func (enc *sinkEncoder) mark(commit func(Cursor, bool)) {
	enc.send()
	enc.full <- encJob{commit: commit}
}

// close hands over what is left, joins the encoder, then the syncer, and
// returns the encoder's first error. Only the first call does the work.
func (enc *sinkEncoder) close() error {
	if enc.full != nil {
		enc.send()
		close(enc.full)
		<-enc.done
		enc.full = nil
		if enc.syncer != nil {
			enc.syncer.close()
		}
		if enc.panicked != "" {
			panic(enc.panicked)
		}
	}
	return enc.err
}

// syncMark is a checkpoint on its way to the disk: the file length the
// encoder flushed at the mark, and whether it could.
type syncMark struct {
	commit func(Cursor, bool)
	bytes  int64
	ok     bool
}

// fileSyncer fsyncs a file sink's output off the stream's path: for each
// mark, in order, it fsyncs the file and only then commits the mark's
// cursor. Its queue holds one mark, so at most one waits behind an fsync
// in flight; past that the encoder blocks, and every checkpoint still
// costs one fsync.
type fileSyncer struct {
	marks chan syncMark
	done  chan struct{}
}

func startSyncer(f *os.File, name string) *fileSyncer {
	sy := &fileSyncer{marks: make(chan syncMark, 1), done: make(chan struct{})}
	go sy.run(f, name)
	return sy
}

func (sy *fileSyncer) run(f *os.File, name string) {
	defer close(sy.done)
	for m := range sy.marks {
		if m.ok {
			killPoint("fsync")
			sp := tracez.Begin(tracez.StageSinkSync, "")
			m.ok = f.Sync() == nil
			sp.End(m.bytes, name)
		}
		if !m.ok {
			m.commit(Cursor{}, false)
			continue
		}
		killPoint("synced")
		m.commit(Cursor{Bytes: m.bytes}, true)
	}
}

// close commits what is queued and joins the syncer.
func (sy *fileSyncer) close() {
	close(sy.marks)
	<-sy.done
}

// syncTestHook, when set, runs at the checkpoint path's kill points:
// "queued" on the encoder, with a mark just handed to the syncer; "fsync"
// on the syncer, before a mark's fsync; "synced" after it, before the
// commit. A crash test stops a run there (setSyncTestHook).
var syncTestHook atomic.Pointer[func(point string)]

// setSyncTestHook installs h, or removes the hook when h is nil. It is a
// test seam, reached by linkname from the daemon's crash tests.
func setSyncTestHook(h func(point string)) {
	if h == nil {
		syncTestHook.Store(nil)
		return
	}
	syncTestHook.Store(&h)
}

func killPoint(point string) {
	if h := syncTestHook.Load(); h != nil {
		(*h)(point)
	}
}

type fileResult struct {
	Events int64
	Out    string
}

func (r fileResult) Wire() map[string]any {
	return map[string]any{"events": r.Events, "out": r.Out}
}

func (r fileResult) Report(_, diag io.Writer, scenario string, wall time.Duration) {
	fmt.Fprintf(diag, "scenario %s: wrote %d events in %v\n", scenario, r.Events, wall.Round(time.Millisecond))
}
