package scenario

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// startRequest and referenceValidate are the pre-registry
// served.validateStart sink checks, kept verbatim (less the reachability
// dial, which needed a network, and the degrade policy, deleted since) as
// the reference the registry's validation is compared against.
type startRequest struct {
	Sink, Out, Addr string
	ClosedLoop      bool
}

func referenceValidate(req *startRequest) error {
	switch req.Sink {
	case "", "count", "mcn":
		if req.Out != "" {
			return fmt.Errorf("sink %q takes no out path", req.Sink)
		}
	case "jsonl", "csv":
		if req.Out == "" {
			return fmt.Errorf("sink %q requires out (server-side output path)", req.Sink)
		}
	case "replay":
		if req.Out != "" {
			return fmt.Errorf("sink %q takes no out path", req.Sink)
		}
		if req.Addr == "" {
			return errors.New(`sink "replay" requires addr (replaynet server address)`)
		}
	default:
		return fmt.Errorf("unknown sink %q (want count, mcn, jsonl, csv or replay)", req.Sink)
	}
	if req.Sink != "replay" {
		if req.Addr != "" {
			return fmt.Errorf("sink %q takes no addr", req.Sink)
		}
		if req.ClosedLoop {
			return fmt.Errorf("closed_loop only applies to the replay sink")
		}
	}
	return nil
}

// TestSinkConfigMatrix holds SinkConfig.Validate to the reference over the
// full product of sink × out × addr × closed-loop, verdict and message
// both.
func TestSinkConfigMatrix(t *testing.T) {
	rows := 0
	for _, sink := range []string{"", "count", "mcn", "jsonl", "csv", "replay", "unknown"} {
		for _, out := range []string{"", "/tmp/out"} {
			for _, addr := range []string{"", "127.0.0.1:9"} {
				for _, closed := range []bool{false, true} {
					rows++
					want := referenceValidate(&startRequest{sink, out, addr, closed})
					got := SinkConfig{Name: sink, Out: out, Addr: addr, ClosedLoop: closed}.Validate()
					if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
						t.Errorf("sink=%q out=%q addr=%q closed=%v: got %v, reference %v",
							sink, out, addr, closed, got, want)
					}
				}
			}
		}
	}
	if rows != 56 {
		t.Fatalf("matrix has %d rows, want 56", rows)
	}
	// What only cptscenario sets: a stdout default stands in for a file
	// sink's out, and a dial seam is a replay-only field like the others.
	if err := (SinkConfig{Name: "csv", Stdout: io.Discard}).Validate(); err != nil {
		t.Errorf("file sink with a stdout default refused: %v", err)
	}
	noDial := func(string) (net.Conn, error) { return nil, errors.New("no network in tests") }
	if err := (SinkConfig{Dial: noDial}).Validate(); err == nil {
		t.Error("dial seam accepted on the count sink")
	}
}

// TestSinkNamedOnce fails if a non-test source of the daemon or of either
// binary spells a registered sink name as a string literal: the registry
// is the one place that lists or compares them.
func TestSinkNamedOnce(t *testing.T) {
	names := map[string]bool{}
	for _, s := range sinks {
		names[s.name] = true
	}
	for _, dir := range []string{"../served", "../../cmd/cptscenario", "../../cmd/cptserved"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Fatalf("no Go package under %s", dir)
		}
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				ast.Inspect(file, func(n ast.Node) bool {
					lit, ok := n.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						return true
					}
					if s, err := strconv.Unquote(lit.Value); err == nil && names[s] {
						t.Errorf("%s: sink name %s spelled outside the registry", fset.Position(lit.Pos()), lit.Value)
					}
					return true
				})
			}
		}
	}
}

// countBelow is a caller's byte-counting layer, as the daemon supplies one.
func countBelow(f io.Writer, offset int64) (io.Writer, func() int64) {
	cw := &countWriter{w: f, n: offset}
	return cw, func() int64 { return cw.n }
}

type countWriter struct {
	w io.Writer
	n int64
}

func (cw *countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// crashingSource plays a journaled run that dies: it takes the sink's
// cursor before releasing event at+1 — from inside Next, as the daemon's
// checkpoint tap does — and ends the stream `extra` events later, leaving
// a tail on disk that no cursor covers.
type crashingSource struct {
	EventSource
	sink      Checkpointer
	at, extra int
	n         int
	key       Event
	cur       Cursor
	ok        bool
}

func (c *crashingSource) Next() (Event, bool) {
	if c.n == c.at+c.extra {
		return Event{}, false
	}
	if c.n == c.at {
		c.cur, c.ok = c.sink.Cursor()
	}
	e, ok := c.EventSource.Next()
	if ok {
		if c.n++; c.n <= c.at {
			c.key = e
		}
	}
	return e, ok
}

// TestFileSinkCursorResume is the shared file body's crash contract at unit
// level: write, take a cursor, write a tail the crash loses track of, then
// resume from the cursor with the regenerated suffix — the file must equal
// an uninterrupted write's byte for byte, for both formats (the csv header
// not repeated). A ".gz" path and a file shorter than the cursor refuse it.
func TestFileSinkCursorResume(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{UEs: 100, TempDir: t.TempDir()}
	write := func(cfg SinkConfig, ropts RunOpts, resume *Cursor, crash *crashingSource) {
		t.Helper()
		st, err := spec.Open(ropts)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		sink, err := NewSink(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if resume != nil {
			if err := sink.(Checkpointer).Resume(*resume); err != nil {
				t.Fatalf("resume from %+v: %v", *resume, err)
			}
		}
		var src EventSource = st
		if crash != nil {
			crash.EventSource, crash.sink = st, sink.(Checkpointer)
			src = crash
		}
		if _, err := sink.Consume(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
	for _, format := range []string{"jsonl", "csv"} {
		dir := t.TempDir()
		ref := SinkConfig{Name: format, Out: filepath.Join(dir, "ref")}
		write(ref, opts, nil, nil)
		want, err := os.ReadFile(ref.Out)
		if err != nil {
			t.Fatal(err)
		}

		// A resume at 700 events, and at the encoder's batch boundary ±1.
		for _, at := range []int{700, sinkBatch - 1, sinkBatch, sinkBatch + 1} {
			cfg := SinkConfig{Name: format, Out: filepath.Join(dir, fmt.Sprintf("out-%d", at)), Below: countBelow}
			crash := &crashingSource{at: at, extra: 450}
			write(cfg, opts, nil, crash)
			if !crash.ok || crash.cur.Bytes <= 0 {
				t.Fatalf("%s: cursor %+v ok=%v after %d events", format, crash.cur, crash.ok, at)
			}
			torn, _ := os.ReadFile(cfg.Out)
			if int64(len(torn)) <= crash.cur.Bytes || bytes.Equal(torn, want) {
				t.Fatalf("%s: crashed file has %d bytes, cursor %d: no lost tail to drop", format, len(torn), crash.cur.Bytes)
			}

			gz := cfg
			gz.Out += ".gz"
			gzSink, _ := NewSink(gz)
			if err := gzSink.(Checkpointer).Resume(crash.cur); err == nil {
				t.Errorf("%s: a .gz sink accepted a byte cursor", format)
			}
			short, _ := NewSink(cfg)
			past := crash.cur
			past.Bytes = int64(len(torn)) + 1
			if err := short.(Checkpointer).Resume(past); err == nil {
				t.Errorf("%s: a cursor past the end of the file was accepted", format)
			}

			ropts := opts
			ropts.ResumeAfter = &crash.key
			write(cfg, ropts, &crash.cur, nil)
			got, _ := os.ReadFile(cfg.Out)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s at %d: resumed file (%d bytes) differs from an uninterrupted write (%d bytes)", format, at, len(got), len(want))
			}
		}
	}
}
