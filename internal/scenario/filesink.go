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
	"sync"
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

// Checkpoint puts a mark behind the events handed to the encoders so far
// and returns at once. The writer flushes at the mark and reads the
// file's length; the syncer fsyncs the file and only then commits that
// length, so a committed cursor always implies a durable prefix holding
// exactly the events consumed before the call (the caller, which fed
// them, counts them). Where there is no byte position to vouch for
// (".gz", stdout, no counting layer) it commits the zero cursor before it
// returns, and a resume starts the file over; before Consume, with nothing
// written, it commits ok=false.
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

// Consume pulls the source on the caller's goroutine, renders lines on
// sinkEncoders others and writes them on one more (sinkEncoder), which owns
// the LineWriter and every writer below it until the close below; a file
// with a byte cursor is fsynced on a last one (fileSyncer).
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
	lw, err := trace.NewLineWriter(w, s.cfg.Name, s.from.Bytes == 0)
	if err != nil {
		return nil, err
	}
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	defer func() { sp.End(int64(lw.Count()), s.cfg.Name) }()
	var syncer *fileSyncer
	if f != nil && written != nil && gzw == nil {
		syncer = startSyncer(f, s.cfg.Name)
	}
	enc := startEncoder(lw, UEIDAppender(src), s.cfg.Name, syncer, written)
	s.enc = enc
	defer func() {
		enc.close() // joins the encoders, the writer and the syncer on every path, a panicking src.Next's too
		s.enc = nil
	}()
	for {
		e, ok := src.Next()
		if !ok || !enc.add(e) {
			break
		}
	}
	// The writer's first error is the one a serial loop would have
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

// sinkBatch is how many events Consume hands the encoders at a time,
// sinkEncoders how many encoder goroutines render batches into lines at
// once, and sinkBuffers how many batches exist: one filling on the
// consumer's side, the rest queued, rendering or being written. With one
// encoder, a 5000-UE flash-crowd stream into jsonl with a cursor every
// 4096 events ran within noise of itself from 256 to 2048 events per
// batch and 2 to 8 buffers on 2 cores. A second encoder renders while the
// first does and while the consumer waits on the source: on the same
// stream, in process on 2 cores, it cut the stream phase from 29–33 to
// 24–28 ms into a tmpfs file, and a third would only oversubscribe 2
// cores further. With two encoders, 8 buffers ran 36–38 ms into an ext4
// file where 4 ran 39–43 and 12 38–41.
const (
	sinkBatch    = 512
	sinkEncoders = 2
	sinkBuffers  = 8
)

// encBatch is a batch of events on its way to the file: the events, the
// lines an encoder rendered from them, and a panic raised while rendering,
// which ends the lines there.
type encBatch struct {
	evs      []Event
	lines    trace.Lines
	panicked string
	ready    chan struct{} // one token once rendered, for the writer
}

// sinkBatches keeps file sinks' batches, their rendered lines' memory
// included, from one Consume to the next, as workerMemory keeps the chunk
// workers'. Grown afresh in every run, the batches cost a daemon the GC
// cycles that emptied workerMemory between its runs: a served-jsonl round
// allocated 73–96 bytes per event with workerMemory alone and 34–39 with
// both pools (10 s traced cptbench runs, 2 vCPUs).
var sinkBatches = sync.Pool{New: func() any {
	return &encBatch{evs: make([]Event, 0, sinkBatch), ready: make(chan struct{}, 1)}
}}

// writeJob is what the writer takes in stream order: a batch to write once
// it is rendered, or a checkpoint mark (commit set) behind the batches
// queued before it.
type writeJob struct {
	b      *encBatch
	commit func(Cursor, bool)
}

// sinkEncoder renders a file sink's lines on sinkEncoders goroutines and
// writes them on one more, so a file run's source, its rendering and its
// writing share the cores. The consumer hands each batch to the encoders
// (todo: whichever is free renders it) and to the writer (order), which
// waits for each batch in turn and hands its lines to the LineWriter, so
// the file gets the bytes a serial loop would write, block for block. A
// checkpoint mark takes its place in that order: the writer flushes at it,
// reads the file's length and passes both to the syncer. Writing stops at
// the first failure in stream order — a failed block write, an event that
// cannot be rendered, a panic — which close reports.
type sinkEncoder struct {
	cur   *encBatch      // the batch being filled (consumer side)
	todo  chan *encBatch // batches to render, by any encoder
	order chan writeJob  // batches and marks to write, in order
	free  chan *encBatch // written batches, back for refilling

	rendering sync.WaitGroup // the encoders
	done      chan struct{}  // closed when the writer has exited

	la       *trace.LineAppender
	appendID func(dst []byte, e Event) []byte
	name     string // the format, for the encoders' spans

	lw      *trace.LineWriter // the writer's until close
	syncer  *fileSyncer       // nil: no byte cursor
	written func() int64      // the file's length, for a mark

	failed atomic.Bool // set by the writer with err or panicked
	// Written by the writer goroutine; read by the consumer after the join.
	err      error
	panicked string // the recovered panic, with its goroutine's stack
}

// startEncoder starts the encoders and the writer; close stops and joins
// them and syncer. Each of todo, order and free holds every buffer there
// is, so no encoder blocks and the writer never blocks handing a batch
// back; the consumer waits for a free buffer, or behind queued marks, and
// the writer for the slowest encoder and the syncer: that is the stream's
// backpressure. The goroutines leave their loops only when close closes
// todo and order.
func startEncoder(lw *trace.LineWriter, appendID func([]byte, Event) []byte, name string, syncer *fileSyncer, written func() int64) *sinkEncoder {
	enc := &sinkEncoder{
		todo:     make(chan *encBatch, sinkBuffers),
		order:    make(chan writeJob, sinkBuffers),
		free:     make(chan *encBatch, sinkBuffers),
		done:     make(chan struct{}),
		la:       lw.Appender(),
		appendID: appendID,
		name:     name,
		lw:       lw,
		syncer:   syncer,
		written:  written,
	}
	for i := range sinkBuffers {
		b := sinkBatches.Get().(*encBatch)
		b.evs = b.evs[:0]
		if i == 0 {
			enc.cur = b
		} else {
			enc.free <- b
		}
	}
	enc.rendering.Add(sinkEncoders)
	for range sinkEncoders {
		go enc.runEncoder()
	}
	go enc.runWriter()
	return enc
}

func (enc *sinkEncoder) runEncoder() {
	defer enc.rendering.Done()
	var id []byte
	for b := range enc.todo {
		// Past a failure nothing more is written, so nothing more need be
		// rendered.
		if !enc.failed.Load() {
			id = enc.render(b, id)
		}
		b.ready <- struct{}{}
	}
}

// render renders b's lines, with id as the buffer UE ids go through. A
// panic (in a source's UEID, say) ends the lines there, and the writer
// raises it on the consumer's goroutine when it reaches b, as a serial
// sink would have.
func (enc *sinkEncoder) render(b *encBatch, id []byte) []byte {
	sp := tracez.Begin(tracez.StageSinkEncode, "")
	b.lines.Reset()
	b.panicked = ""
	defer func() {
		if p := recover(); p != nil {
			b.panicked = panicMessage(p)
		}
		sp.End(int64(b.lines.Len()), enc.name)
	}()
	for _, e := range b.evs {
		id = enc.appendID(id[:0], e)
		if !b.lines.Append(enc.la, e.Time, id, e.Device, e.Type) {
			break
		}
	}
	return id
}

func (enc *sinkEncoder) runWriter() {
	defer close(enc.done)
	for j := range enc.order {
		if b := j.b; b != nil {
			<-b.ready
			if !enc.failed.Load() {
				enc.write(b)
			}
			b.evs = b.evs[:0]
			enc.free <- b
			continue
		}
		// A mark: every event before it has been written. One that cannot
		// be flushed still goes through the syncer, which commits marks in
		// order.
		m := syncMark{commit: j.commit}
		if !enc.failed.Load() && enc.flush() {
			m.ok, m.bytes = true, enc.written()
		}
		enc.syncer.marks <- m
		killPoint("queued")
	}
}

// write hands one rendered batch to the LineWriter: the lines rendered
// before any failure, then the failure.
func (enc *sinkEncoder) write(b *encBatch) {
	defer enc.recoverPanic()
	if err := enc.lw.WriteLines(&b.lines); err != nil {
		enc.err = err
		enc.failed.Store(true)
	} else if b.panicked != "" {
		enc.panicked = b.panicked
		enc.failed.Store(true)
	}
}

// flush pushes the lines written so far to the writers below, at a mark.
// A failed block write sticks in the LineWriter, so the next write or the
// final flush reports it.
func (enc *sinkEncoder) flush() bool {
	defer enc.recoverPanic()
	return enc.lw.Flush() == nil
}

func (enc *sinkEncoder) recoverPanic() {
	if p := recover(); p != nil {
		enc.panicked = panicMessage(p)
		enc.failed.Store(true)
	}
}

// panicMessage describes a panic recovered in the sink's goroutines, with
// the stack it was raised on, for close to raise again.
func panicMessage(p any) string {
	return fmt.Sprintf("scenario: panic in file sink encoder: %v\n%s", p, debug.Stack())
}

// add queues e and reports whether the consumer should carry on: false
// once writing has failed, which it learns a batch at a time.
func (enc *sinkEncoder) add(e Event) bool {
	enc.cur.evs = append(enc.cur.evs, e)
	if len(enc.cur.evs) < sinkBatch {
		return true
	}
	enc.send()
	return !enc.failed.Load()
}

// send hands over the partial batch.
func (enc *sinkEncoder) send() {
	if len(enc.cur.evs) > 0 {
		enc.todo <- enc.cur
		enc.order <- writeJob{b: enc.cur}
		enc.cur = <-enc.free
	}
}

// mark queues a checkpoint behind every event added so far.
func (enc *sinkEncoder) mark(commit func(Cursor, bool)) {
	enc.send()
	enc.order <- writeJob{commit: commit}
}

// close hands over what is left, joins the encoders, the writer and then
// the syncer, puts the batches back in sinkBatches, and returns the
// writer's first error. Only the first call does the work.
func (enc *sinkEncoder) close() error {
	if enc.order != nil {
		enc.send()
		close(enc.todo)
		close(enc.order)
		enc.rendering.Wait()
		<-enc.done
		enc.order = nil
		sinkBatches.Put(enc.cur)
		for range sinkBuffers - 1 {
			sinkBatches.Put(<-enc.free)
		}
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
// writer flushed at the mark, and whether it could.
type syncMark struct {
	commit func(Cursor, bool)
	bytes  int64
	ok     bool
}

// fileSyncer fsyncs a file sink's output off the stream's path: for each
// mark, in order, it fsyncs the file and only then commits the mark's
// cursor. Its queue holds one mark, so at most one waits behind an fsync
// in flight; past that the writer blocks, and every checkpoint still
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
// "queued" on the writer, with a mark just handed to the syncer; "fsync"
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
