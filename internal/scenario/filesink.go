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

	// Set while Consume runs, for Cursor.
	f       *os.File
	lw      *trace.LineWriter
	enc     *sinkEncoder
	written func() int64
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

// Cursor drains the encoder, then flushes it and fsyncs the file before
// it reports the file's length, so a recorded cursor always implies a
// durable prefix holding exactly the events consumed so far; the caller,
// which fed them, counts them. Where there is no byte position to vouch
// for (".gz", stdout, no counting layer) the cursor is zero and a resume
// starts the file over.
func (s *fileSink) Cursor() (Cursor, bool) {
	if s.enc == nil {
		return Cursor{}, false
	}
	if s.f == nil || s.written == nil || s.gz() {
		return Cursor{}, true
	}
	if s.enc.sync() != nil || s.lw.Flush() != nil || s.f.Sync() != nil {
		return Cursor{}, false
	}
	return Cursor{Bytes: s.written()}, true
}

// Consume pulls the source on the caller's goroutine and encodes on one
// other (sinkEncoder), which owns the eventWriter and every writer below
// it except while Cursor or the close below holds it idle.
func (s *fileSink) Consume(_ context.Context, src EventSource) (Result, error) {
	w := s.cfg.Stdout
	if s.cfg.Out != "" {
		f, err := s.open()
		if err != nil {
			return nil, err
		}
		// The success path checks Close below; closing twice is harmless.
		defer f.Close()
		s.f, w = f, f
	}
	if s.cfg.Below != nil {
		w, s.written = s.cfg.Below(w, s.from.Bytes)
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
	s.lw = lw
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	defer func() { sp.End(int64(lw.Count()), s.cfg.Name) }()
	enc := startEncoder(ew)
	s.enc = enc
	defer func() {
		enc.close() // joins the encoder on every path, a panicking src.Next's too
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
	if s.f != nil {
		if cerr := s.f.Close(); err == nil {
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

// sinkEncoder runs an eventWriter on its own goroutine, fed in order with
// batches of events by the consumer, so a file run's source and its
// encoding use two cores. Encoding stops at the first Write error — a
// failed block write or an unencodable event — which close reports.
type sinkEncoder struct {
	cur  []Event      // the batch being filled (consumer side)
	full chan []Event // batches to encode in order; nil asks for an ack on idle
	free chan []Event // encoded batches, back for refilling
	idle chan struct{}
	done chan struct{}

	failed atomic.Bool // set with err, for the consumer to stop early
	// Written by the encoder goroutine; read by the consumer after an ack
	// on idle or the join.
	err      error
	panicked string // the recovered panic, with the encoder's stack
}

// startEncoder starts the encoder goroutine; close stops and joins it.
// Both batch channels hold every buffer there is, so neither side blocks
// on a send; the encoder leaves its loop only when close closes full.
func startEncoder(ew *eventWriter) *sinkEncoder {
	enc := &sinkEncoder{
		full: make(chan []Event, sinkBuffers),
		free: make(chan []Event, sinkBuffers),
		idle: make(chan struct{}, 1),
		done: make(chan struct{}),
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
	for b := range enc.full {
		if b == nil {
			enc.idle <- struct{}{}
			continue
		}
		if !enc.failed.Load() {
			enc.encode(ew, b)
		}
		enc.free <- b[:0]
	}
}

// encode writes one batch. A panic (in a source's UEID, say) stops the
// encoding and is raised again on the consumer's goroutine by close, where
// a serial sink would have raised it.
func (enc *sinkEncoder) encode(ew *eventWriter, b []Event) {
	defer func() {
		if p := recover(); p != nil {
			enc.panicked = fmt.Sprintf("scenario: panic in file sink encoder: %v\n%s", p, debug.Stack())
			enc.failed.Store(true)
		}
	}()
	for _, e := range b {
		if err := ew.write(e); err != nil {
			enc.err = err
			enc.failed.Store(true)
			return
		}
	}
}

// add queues e and reports whether the consumer should carry on: false
// once the encoder has failed, which it learns a batch at a time.
func (enc *sinkEncoder) add(e Event) bool {
	enc.cur = append(enc.cur, e)
	if len(enc.cur) < sinkBatch {
		return true
	}
	enc.full <- enc.cur
	enc.cur = <-enc.free
	return !enc.failed.Load()
}

// send hands over the partial batch.
func (enc *sinkEncoder) send() {
	if len(enc.cur) > 0 {
		enc.full <- enc.cur
		enc.cur = <-enc.free
	}
}

// sync returns once every event added so far has gone through
// eventWriter.write, with the encoder's first error; the encoder then stays
// idle until the next add, so the caller may use the LineWriter and the
// writers below it.
func (enc *sinkEncoder) sync() error {
	enc.send()
	enc.full <- nil
	<-enc.idle
	return enc.err
}

// close hands over what is left, joins the encoder and returns its first
// error. Only the first call does the work.
func (enc *sinkEncoder) close() error {
	if enc.full != nil {
		enc.send()
		close(enc.full)
		<-enc.done
		enc.full = nil
		if enc.panicked != "" {
			panic(enc.panicked)
		}
	}
	return enc.err
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
