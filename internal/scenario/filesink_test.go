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
	"sync"
	"sync/atomic"
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

// ckptSource checkpoints the sink after every `every` events, from inside
// Next, and once more at the end of the stream, handing check the number of
// events consumed before each. Waited, it waits there for the commit
// (waitCursor); otherwise it queues a Checkpoint and carries on, as the daemon's
// checkpoint tap does, and check runs where the sink commits.
type ckptSource struct {
	EventSource
	sink   Checkpointer
	every  int
	waited bool
	n      int
	check  func(n int, c Cursor, ok bool)
}

func (c *ckptSource) Next() (Event, bool) {
	if c.n > 0 && c.n%c.every == 0 {
		c.take()
	}
	e, ok := c.EventSource.Next()
	if ok {
		c.n++
	} else if c.n%c.every != 0 {
		c.take()
	}
	return e, ok
}

// AppendUEID forwards the wrapped source's id renderer, as the daemon's
// checkpoint tap does, so the sink renders ids the way it does there.
func (c *ckptSource) AppendUEID(dst []byte, e Event) []byte {
	return UEIDAppender(c.EventSource)(dst, e)
}

// waitCursor is Checkpoint, waited for: the position its commit carries.
func waitCursor(cp Checkpointer) (Cursor, bool) {
	type committed struct {
		c  Cursor
		ok bool
	}
	done := make(chan committed, 1)
	cp.Checkpoint(func(c Cursor, ok bool) { done <- committed{c, ok} })
	r := <-done
	return r.c, r.ok
}

func (c *ckptSource) take() {
	n := c.n
	if c.waited {
		cur, ok := waitCursor(c.sink)
		c.check(n, cur, ok)
		return
	}
	c.sink.Checkpoint(func(cur Cursor, ok bool) { c.check(n, cur, ok) })
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

// noEncoderLeft fails if a file sink's encoder, writer or syncer goroutine
// outlives its Consume. A joined goroutine has signalled its exit as its
// last act but may still be on its way out of the scheduler, so it gets a
// second.
func noEncoderLeft(t *testing.T, what string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		s := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(s, "(*sinkEncoder).runEncoder") && !strings.Contains(s, "(*sinkEncoder).runWriter") &&
			!strings.Contains(s, "(*fileSyncer).run") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: an encoder, writer or syncer goroutine outlived Consume:\n%s", what, s)
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
// already on disk when it is committed. Queued checkpoints commit in order,
// all before Consume returns; a waited one (waitCursor) returns its commit.
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
			gz := strings.HasSuffix(out, ".gz")
			waits := []bool{false, true}
			if gz {
				waits = waits[:1] // a compressed file commits before Checkpoint returns either way
			}
			for _, waited := range waits {
				what := fmt.Sprintf("%s every %d waited=%v", out, every, waited)
				format := strings.TrimPrefix(filepath.Ext(strings.TrimSuffix(out, ".gz")), ".")
				// A prefix of the events encodes as a prefix of the bytes.
				ends := serial[format].ends[:len(evs)+1]
				ref := serial[format].ref[:ends[len(evs)]]
				cfg := SinkConfig{Name: format, Out: filepath.Join(t.TempDir(), out), Below: countBelow}
				sink, err := NewSink(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var (
					mu       sync.Mutex
					cursors  int
					lastN    = -1
					consumed bool
				)
				src := &ckptSource{EventSource: &memSource{Stream: st, evs: evs}, sink: sink.(Checkpointer), every: every, waited: waited}
				src.check = func(n int, c Cursor, ok bool) {
					mu.Lock()
					defer mu.Unlock()
					cursors++
					if consumed || n <= lastN {
						t.Errorf("%s: the cursor after %d events committed after the one after %d events, or after Consume returned", what, n, lastN)
					}
					lastN = n
					if !ok {
						t.Errorf("%s: no cursor after %d events", what, n)
						return
					}
					if gz {
						if c != (Cursor{}) {
							t.Errorf("%s: cursor %+v on a compressed file", what, c)
						}
						return
					}
					if c.Bytes != ends[n] {
						t.Errorf("%s: cursor after %d events at byte %d, want %d", what, n, c.Bytes, ends[n])
						return
					}
					// The file holds the reference prefix: its tail, where the
					// last lines handed over end, and (waited, with the
					// encoder idle since) nothing past it.
					f, err := os.Open(cfg.Out)
					if err != nil {
						t.Error(err)
						return
					}
					defer f.Close()
					tail := ref[max(c.Bytes-256, 0):c.Bytes]
					got := make([]byte, len(tail)+1)
					m, _ := f.ReadAt(got, c.Bytes-int64(len(tail)))
					if m < len(tail) || !bytes.Equal(got[:len(tail)], tail) || waited && m > len(tail) {
						t.Errorf("%s: after %d events the file does not hold the reference's bytes up to byte %d", what, n, c.Bytes)
					}
				}
				res, err := sink.Consume(context.Background(), src)
				if err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				consumed = true
				took := cursors
				mu.Unlock()
				if got := res.(fileResult).Events; got != int64(len(evs)) {
					t.Fatalf("%s: %d events reported, want %d", what, got, len(evs))
				}
				if want := (len(evs) + every - 1) / every; took != want {
					t.Fatalf("%s: %d cursors committed by the time Consume returned, want %d", what, took, want)
				}
				if got := readSinkFile(t, cfg.Out); !bytes.Equal(got, ref) {
					t.Fatalf("%s: file (%d bytes) differs from the serial encoding (%d bytes)", what, len(got), len(ref))
				}
				noEncoderLeft(t, what)
				if t.Failed() {
					return
				}
			}
		}
	}
}

// failOn passes writes to w until the n-th, which takes accept bytes and
// fails with err, or panics if accept is negative.
type failOn struct {
	w      io.Writer
	calls  int
	n      int
	accept int
	err    error
}

func (f *failOn) Write(p []byte) (int, error) {
	f.calls++
	if f.calls == f.n && f.accept < 0 {
		panic("write panics")
	}
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

// pullCount counts the events a source has released, for another goroutine
// to watch.
type pullCount struct {
	EventSource
	n atomic.Int64
}

func (p *pullCount) Next() (Event, bool) {
	e, ok := p.EventSource.Next()
	if ok {
		p.n.Add(1)
	}
	return e, ok
}

// TestFileSinkSyncerBackpressure: the syncer's queue holds one mark. While
// an fsync is held in flight, one more mark queues behind it, the next one
// blocks the encoder, and the stream stalls behind it. Released, every mark
// gets its own fsync and commits, in order, before Consume returns.
func TestFileSinkSyncerBackpressure(t *testing.T) {
	st, evs := benchEvents(50000)
	const every = 100
	var (
		mu      sync.Mutex
		points  = map[string]int{}
		commits []int
	)
	hold := make(chan struct{})
	setSyncTestHook(func(point string) {
		mu.Lock()
		points[point]++
		first := point == "fsync" && points[point] == 1
		mu.Unlock()
		if first {
			<-hold
		}
	})
	t.Cleanup(func() { setSyncTestHook(nil) })
	counts := func() (queued, fsyncs, committed int) {
		mu.Lock()
		defer mu.Unlock()
		return points["queued"], points["fsync"], len(commits)
	}

	sink, err := NewSink(SinkConfig{Name: "jsonl", Out: filepath.Join(t.TempDir(), "f.jsonl"), Below: countBelow})
	if err != nil {
		t.Fatal(err)
	}
	pulled := &pullCount{EventSource: &memSource{Stream: st, evs: evs}}
	src := &ckptSource{EventSource: pulled, sink: sink.(Checkpointer), every: every,
		check: func(n int, _ Cursor, ok bool) {
			mu.Lock()
			defer mu.Unlock()
			if !ok {
				t.Errorf("no cursor after %d events", n)
			}
			commits = append(commits, n)
		}}
	done := make(chan error, 1)
	go func() {
		_, err := sink.Consume(context.Background(), src)
		done <- err
	}()

	// Wait for the stream to stall: two marks handed to the syncer and the
	// source left alone for 100 ms.
	last, still := int64(-1), time.Now()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if n := pulled.n.Load(); n != last {
			last, still = n, time.Now()
		}
		if q, _, _ := counts(); q >= 2 && time.Since(still) >= 100*time.Millisecond {
			break
		}
		if time.Now().After(deadline) {
			close(hold)
			<-done
			t.Fatalf("the stream never stalled behind the held fsync (%d events pulled)", last)
		}
	}
	q, f, c := counts()
	if q != 2 || f != 1 || c != 0 || last >= int64(len(evs)) {
		close(hold)
		<-done
		t.Fatalf("with one fsync held: %d marks queued, %d fsyncs begun, %d committed, %d of %d events pulled; want 2, 1, 0 and a stalled stream",
			q, f, c, last, len(evs))
	}

	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	q, f, c = counts()
	if want := len(evs) / every; q != want || f != want || c != want {
		t.Fatalf("%d marks queued, %d fsynced, %d committed; want %d of each", q, f, c, want)
	}
	for i, n := range commits {
		if n != (i+1)*every {
			t.Fatalf("commit %d covers %d events, want %d: out of order", i, n, (i+1)*every)
		}
	}
	noEncoderLeft(t, "held fsync")
}

// TestFileSinkSyncerJoined: on a source error and on an encoder panic,
// Consume commits every mark it was given (those past the failure without a
// cursor) and joins the syncer before it returns.
func TestFileSinkSyncerJoined(t *testing.T) {
	st, all := benchEvents(6000)
	boom := errors.New("boom")
	for _, tc := range []struct {
		name      string
		src       EventSource
		wantPanic bool
	}{
		{"source error", &memSource{Stream: st, evs: all[:3000], err: boom}, false},
		{"encoder panic", &memSource{Stream: st, evs: all}, true},
	} {
		below := countBelow
		if tc.wantPanic {
			// The third block write panics.
			below = func(w io.Writer, offset int64) (io.Writer, func() int64) {
				return countBelow(&failOn{w: w, n: 3, accept: -1}, offset)
			}
		}
		sink, err := NewSink(SinkConfig{Name: "jsonl", Out: filepath.Join(t.TempDir(), "f.jsonl"), Below: below})
		if err != nil {
			t.Fatal(err)
		}
		var (
			mu              sync.Mutex
			marks, vouched  int
			consumed, after bool
		)
		src := &ckptSource{EventSource: tc.src, sink: sink.(Checkpointer), every: 100,
			check: func(n int, _ Cursor, ok bool) {
				mu.Lock()
				defer mu.Unlock()
				marks++
				if ok {
					vouched++
				}
				after = after || consumed
			}}
		func() {
			defer func() {
				if p := recover(); (p != nil) != tc.wantPanic {
					t.Errorf("%s: Consume recovered %v", tc.name, p)
				}
			}()
			if _, err := sink.Consume(context.Background(), src); !tc.wantPanic && err != boom {
				t.Errorf("%s: error %v, want %v", tc.name, err, boom)
			}
		}()
		mu.Lock()
		consumed = true
		m, v, late := marks, vouched, after
		mu.Unlock()
		// Only the panic leaves marks without a cursor.
		if m != src.n/100 || m == 0 || late || (v == m) == tc.wantPanic {
			t.Errorf("%s: %d of %d marks committed before Consume returned, %d with a cursor, late commits %v",
				tc.name, m, src.n/100, v, late)
		}
		noEncoderLeft(t, tc.name)
	}
}

// markSource checkpoints the sink from inside Next, as the daemon's tap
// does, once it has released exactly each count in at (ascending; a count
// may repeat), and records each commit against the count it was asked at.
type markSource struct {
	EventSource
	sink Checkpointer
	at   []int
	n    int

	mu      sync.Mutex
	commits []markCommit
}

type markCommit struct {
	n  int
	c  Cursor
	ok bool
}

func (s *markSource) Next() (Event, bool) {
	s.take()
	e, ok := s.EventSource.Next()
	if ok {
		s.n++
	} else {
		s.take()
	}
	return e, ok
}

func (s *markSource) take() {
	for len(s.at) > 0 && s.at[0] == s.n {
		n := s.n
		s.at = s.at[1:]
		s.sink.Checkpoint(func(c Cursor, ok bool) {
			s.mu.Lock()
			s.commits = append(s.commits, markCommit{n, c, ok})
			s.mu.Unlock()
		})
	}
}

// TestFileSinkParallelMatchesSerial: with the encoders rendering batches in
// parallel, the file holds exactly what the serial reference (encodeAll)
// writes, and a checkpoint at every batch boundary and one event either
// side of it commits the byte length of the reference encoding of the
// events before it — for both formats, short and long streams, on a fresh
// file and on one resumed from a cursor, whose torn tail is cut and whose
// csv header is not written again.
func TestFileSinkParallelMatchesSerial(t *testing.T) {
	st, all := benchEvents(100 + 4103)
	pre, rest := all[:100], all[100:]
	for _, format := range []string{"jsonl", "csv"} {
		for _, resumed := range []bool{false, true} {
			for _, n := range []int{0, 1, sinkBatch - 1, sinkBatch, sinkBatch + 1, 4103} {
				what := fmt.Sprintf("%s resumed=%v %d events", format, resumed, n)
				evs := rest[:n]
				at := []int{0}
				for b := sinkBatch; b-1 <= n; b += sinkBatch {
					for _, m := range []int{b - 1, b, b + 1} {
						if m <= n {
							at = append(at, m)
						}
					}
				}
				at = append(at, n, n) // two at the end, the second with nothing new

				out := filepath.Join(t.TempDir(), "f."+format)
				var head []byte // what a resumed file keeps of its earlier run
				if resumed {
					var err error
					if head, err = encodeAll(t, format, true, st, pre); err != nil {
						t.Fatal(err)
					}
					torn := append(append([]byte(nil), head...), `{"t":12.5,"ue_id":"torn`...)
					if err := os.WriteFile(out, torn, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				sink, err := NewSink(SinkConfig{Name: format, Out: out, Below: countBelow})
				if err != nil {
					t.Fatal(err)
				}
				if resumed {
					if err := sink.(Checkpointer).Resume(Cursor{Bytes: int64(len(head)), Events: int64(len(pre))}); err != nil {
						t.Fatal(err)
					}
				}
				src := &markSource{EventSource: &memSource{Stream: st, evs: evs}, sink: sink.(Checkpointer), at: at}
				res, err := sink.Consume(context.Background(), src)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				noEncoderLeft(t, what)
				// encoded is the reference encoding of the first m events, as
				// this run writes them behind head.
				encoded := func(m int) []byte {
					b, err := encodeAll(t, format, !resumed, st, evs[:m])
					if err != nil {
						t.Fatal(err)
					}
					return append(append([]byte(nil), head...), b...)
				}
				want := encoded(n)
				got := readSinkFile(t, out)
				if !bytes.Equal(got, want) {
					t.Fatalf("%s: file (%d bytes) differs from the serial encoding (%d bytes)", what, len(got), len(want))
				}
				if format == "csv" && bytes.Count(got, []byte("ue_id,device_type,timestamp,event_type\n")) != 1 {
					t.Fatalf("%s: the csv header is not in the file exactly once", what)
				}
				wantEvents := int64(n)
				if resumed {
					wantEvents += int64(len(pre))
				}
				if got := res.(fileResult).Events; got != wantEvents {
					t.Fatalf("%s: %d events reported, want %d", what, got, wantEvents)
				}
				src.mu.Lock()
				commits := src.commits
				src.mu.Unlock()
				if len(commits) != len(at) {
					t.Fatalf("%s: %d commits for %d marks", what, len(commits), len(at))
				}
				for i, c := range commits {
					if c.n != at[i] || !c.ok {
						t.Fatalf("%s: commit %d is for %d events (ok %v), want %d, in order", what, i, c.n, c.ok, at[i])
					}
					if w := int64(len(encoded(c.n))); c.c.Bytes != w {
						t.Fatalf("%s: the cursor after %d events is at byte %d, the serial encoding's at %d", what, c.n, c.c.Bytes, w)
					}
				}
			}
		}
	}
}

// TestFileSinkConcurrentUEIDRenderers: the sink's encoders render UE ids on
// several goroutines at once, through the UEID string fallback (idSource
// reads its table) and through a Pacer forwarding a Stream's AppendUEID.
// Both are read-only, so under the race detector nothing is reported and
// the file is the serial reference's.
func TestFileSinkConcurrentUEIDRenderers(t *testing.T) {
	st, evs := benchEvents(16 * sinkBatch)
	table := map[uint64]string{}
	for _, e := range evs {
		table[e.UE] = "tbl-" + st.UEID(e)
	}
	for _, tc := range []struct {
		name string
		src  func() EventSource
	}{
		{"string fallback", func() EventSource { return &idSource{sliceSource: sliceSource{evs: evs}, ids: table} }},
		{"pacer", func() EventSource { return NewPacer(context.Background(), &memSource{Stream: st, evs: evs}, 0) }},
	} {
		for _, format := range []string{"jsonl", "csv"} {
			src := tc.src()
			want, err := encodeAll(t, format, true, src, evs)
			if err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), "f."+format)
			sink, err := NewSink(SinkConfig{Name: format, Out: out})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sink.Consume(context.Background(), src); err != nil {
				t.Fatalf("%s %s: %v", tc.name, format, err)
			}
			if got := readSinkFile(t, out); !bytes.Equal(got, want) {
				t.Fatalf("%s %s: file (%d bytes) differs from the serial encoding (%d bytes)", tc.name, format, len(got), len(want))
			}
		}
	}
}
