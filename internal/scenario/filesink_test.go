package scenario

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// memSource replays events in memory under a Stream's UE ids; once they
// run out, Next reports the end and Err reports err.
type memSource struct {
	*Stream
	evs []Event
	i   int
	err error
}

func (s *memSource) Next() (Event, bool) {
	if s.i >= len(s.evs) {
		return Event{}, false
	}
	s.i++
	return s.evs[s.i-1], true
}

func (s *memSource) Err() error { return s.err }

// ckptSource takes the sink's cursor after every `every` events, from
// inside Next, as the daemon's checkpoint tap does, and once more at the
// end of the stream.
type ckptSource struct {
	EventSource
	sink  Checkpointer
	every int
	n     int
	check func(n int, c Cursor, ok bool)
}

func (c *ckptSource) Next() (Event, bool) {
	if c.n > 0 && c.n%c.every == 0 {
		cur, ok := c.sink.Cursor()
		c.check(c.n, cur, ok)
	}
	e, ok := c.EventSource.Next()
	if ok {
		c.n++
	} else if c.n%c.every != 0 {
		cur, ok := c.sink.Cursor()
		c.check(c.n, cur, ok)
	}
	return e, ok
}

// serialLines is the reference encoding of evs, one eventWriter.write at a
// time on the caller's goroutine, with the offset at which each line ends:
// ends[m] is the encoding's length after m events (header included).
func serialLines(t testing.TB, format string, src EventSource, evs []Event) (ref []byte, ends []int64) {
	t.Helper()
	var buf bytes.Buffer
	ew, err := newEventWriter(&buf, format, src, true)
	if err != nil {
		t.Fatal(err)
	}
	lw := ew.lw
	lw.Flush()
	ends = append(ends, int64(buf.Len()))
	for _, e := range evs {
		if err := ew.write(e); err != nil {
			t.Fatal(err)
		}
		lw.Flush()
		ends = append(ends, int64(buf.Len()))
	}
	return buf.Bytes(), ends
}

// serialConsume is the file sink's loop on one goroutine: encode until the
// source ends or a Write fails, then flush. Its bytes and error are what
// the pipelined sink must leave behind.
func serialConsume(w io.Writer, format string, src EventSource) error {
	ew, err := newEventWriter(w, format, src, true)
	if err != nil {
		return err
	}
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		if err = ew.write(e); err != nil {
			break
		}
	}
	if err == nil {
		err = src.Err()
	}
	if ferr := ew.lw.Flush(); err == nil {
		err = ferr
	}
	return err
}

// noEncoderLeft fails if a file sink's encoder goroutine outlives its
// Consume. A joined encoder has closed its done channel as its last act
// but may still be on its way out of the scheduler, so it gets a second.
func noEncoderLeft(t *testing.T, what string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		s := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(s, "(*sinkEncoder).run") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: the encoder goroutine outlived Consume:\n%s", what, s)
		}
	}
}

func readSinkFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, ".gz") {
		return b
	}
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if b, err = io.ReadAll(zr); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFileSinkMatchesSerialEncoder: whatever the checkpoint cadence against
// the encoder's batches, the file equals the serial eventWriter's bytes, and
// each cursor names exactly the encoding of the events consumed before it,
// already on disk — the encoder is drained before the fsync.
func TestFileSinkMatchesSerialEncoder(t *testing.T) {
	st, all := benchEvents(2*4096 + 1100)
	type encoding struct {
		ref  []byte
		ends []int64
	}
	serial := map[string]encoding{}
	for _, format := range []string{"jsonl", "csv"} {
		ref, ends := serialLines(t, format, st, all)
		serial[format] = encoding{ref, ends}
	}
	for _, every := range []int{1, 7, 511, 512, 513, 4096, sinkBatch - 1, sinkBatch, sinkBatch + 1} {
		evs := all[:2*every+1100]
		for _, out := range []string{"f.jsonl", "f.csv", "f.jsonl.gz", "f.csv.gz"} {
			format := strings.TrimPrefix(filepath.Ext(strings.TrimSuffix(out, ".gz")), ".")
			gz := strings.HasSuffix(out, ".gz")
			// A prefix of the events encodes as a prefix of the bytes.
			ends := serial[format].ends[:len(evs)+1]
			ref := serial[format].ref[:ends[len(evs)]]
			cfg := SinkConfig{Name: format, Out: filepath.Join(t.TempDir(), out), Below: countBelow}
			sink, err := NewSink(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cursors := 0
			src := &ckptSource{EventSource: &memSource{Stream: st, evs: evs}, sink: sink.(Checkpointer), every: every}
			src.check = func(n int, c Cursor, ok bool) {
				cursors++
				if !ok {
					t.Fatalf("%s every %d: no cursor after %d events", out, every, n)
				}
				if gz {
					if c != (Cursor{}) {
						t.Fatalf("%s every %d: cursor %+v on a compressed file", out, every, c)
					}
					return
				}
				if c.Bytes != ends[n] {
					t.Fatalf("%s every %d: cursor after %d events at byte %d, want %d", out, every, n, c.Bytes, ends[n])
				}
				// The file is the reference prefix: its length, and its
				// tail, where the last lines handed over end.
				f, err := os.Open(cfg.Out)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				tail := ref[max(c.Bytes-256, 0):c.Bytes]
				got := make([]byte, len(tail)+1)
				m, _ := f.ReadAt(got, c.Bytes-int64(len(tail)))
				if !bytes.Equal(got[:m], tail) {
					t.Fatalf("%s every %d: after %d events the file does not end at byte %d in the reference's bytes", out, every, n, c.Bytes)
				}
			}
			res, err := sink.Consume(context.Background(), src)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.(fileResult).Events; got != int64(len(evs)) {
				t.Fatalf("%s every %d: %d events reported, want %d", out, every, got, len(evs))
			}
			if want := (len(evs) + every - 1) / every; cursors != want {
				t.Fatalf("%s every %d: %d cursors taken, want %d", out, every, cursors, want)
			}
			if got := readSinkFile(t, cfg.Out); !bytes.Equal(got, ref) {
				t.Fatalf("%s every %d: file (%d bytes) differs from the serial encoding (%d bytes)", out, every, len(got), len(ref))
			}
			noEncoderLeft(t, out)
		}
	}
}

// failOn passes writes to w until the n-th, which takes accept bytes and
// fails with err.
type failOn struct {
	w      io.Writer
	calls  int
	n      int
	accept int
	err    error
}

func (f *failOn) Write(p []byte) (int, error) {
	f.calls++
	if f.calls == f.n {
		m, _ := f.w.Write(p[:min(f.accept, len(p))])
		return m, f.err
	}
	return f.w.Write(p)
}

// panicID renders UE ids until it meets the UE it panics on.
type panicID struct {
	*memSource
	ue uint64
}

func (p *panicID) AppendUEID(dst []byte, e Event) []byte {
	if e.UE == p.ue {
		panic("no id for this UE")
	}
	return p.memSource.AppendUEID(dst, e)
}

// TestFileSinkFaults: a failing block write, an unencodable event and a
// source error leave the file and the error exactly as a serial loop does,
// and Consume returns with its encoder joined; a panic while encoding is
// raised on Consume's goroutine.
func TestFileSinkFaults(t *testing.T) {
	st, all := benchEvents(6000)
	boom := errors.New("boom")
	nan := func(k int) []Event {
		evs := append([]Event(nil), all...)
		evs[k].Time = math.NaN()
		return evs
	}
	type fault struct {
		name  string
		evs   []Event
		err   error // the source's
		block int   // 1-based block write that fails; 0 = none
		nan   bool  // csv writes a NaN time: no fault there
	}
	var cases []fault
	for _, n := range []int{1, 2, 3} {
		cases = append(cases, fault{name: fmt.Sprintf("block %d fails", n), evs: all, block: n})
	}
	for _, k := range []int{0, 1, sinkBatch - 1, sinkBatch, sinkBatch + 1, 4000} {
		cases = append(cases, fault{name: fmt.Sprintf("NaN at event %d", k), evs: nan(k), nan: true})
	}
	for _, m := range []int{0, 7, sinkBatch, 3001} {
		cases = append(cases, fault{name: fmt.Sprintf("source fails after %d events", m), evs: all[:m], err: boom})
	}
	cases = append(cases, fault{name: "clean run", evs: all})
	for _, tc := range cases {
		for _, format := range []string{"jsonl", "csv"} {
			below := func(w io.Writer) io.Writer {
				if tc.block == 0 {
					return w
				}
				return &failOn{w: w, n: tc.block, accept: 1000, err: boom}
			}
			var want bytes.Buffer
			wantErr := serialConsume(below(&want), format, &memSource{Stream: st, evs: tc.evs, err: tc.err})

			out := filepath.Join(t.TempDir(), "f."+format)
			sink, err := NewSink(SinkConfig{Name: format, Out: out, Below: func(w io.Writer, _ int64) (io.Writer, func() int64) {
				return below(w), nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			_, gotErr := sink.Consume(context.Background(), &memSource{Stream: st, evs: tc.evs, err: tc.err})
			what := tc.name + " " + format
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: error %v, a serial sink returns %v", what, gotErr, wantErr)
			}
			if clean := tc.name == "clean run" || tc.nan && format == "csv"; clean != (gotErr == nil) {
				t.Fatalf("%s: error %v", what, gotErr)
			}
			if got := readSinkFile(t, out); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%s: file holds %d bytes, a serial sink leaves %d", what, len(got), want.Len())
			}
			noEncoderLeft(t, what)
		}
	}

	sink, err := NewSink(SinkConfig{Name: "jsonl", Out: filepath.Join(t.TempDir(), "f.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "no id for this UE") {
				t.Fatalf("Consume recovered %v, want the encoder's panic", p)
			}
		}()
		sink.Consume(context.Background(), &panicID{memSource: &memSource{Stream: st, evs: all}, ue: all[3000].UE})
	}()
	noEncoderLeft(t, "panicking UE id")
}
