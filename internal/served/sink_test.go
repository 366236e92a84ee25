package served

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"cptgpt/internal/scenario"
)

// halfWriter takes half of its first write and reports no error — the
// short write a broken io.Writer produces silently.
type halfWriter struct {
	calls, took int
}

func (h *halfWriter) Write(p []byte) (int, error) {
	h.calls++
	n := len(p)
	if h.calls == 1 {
		n /= 2
	}
	h.took += n
	return n, nil
}

// TestSinkShortWrite: below the line encoder sits the counting layer; a
// write that comes back short without an error must surface from the
// encoder as io.ErrShortWrite, stick, and leave the byte cursor at what the
// sink really took.
func TestSinkShortWrite(t *testing.T) {
	spec, err := scenario.Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	st, err := spec.Open(scenario.RunOpts{UEs: 20, TempDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, format := range []string{"jsonl", "csv"} {
		sink := &halfWriter{}
		cw := &countingWriter{w: sink}
		lw, err := scenario.NewLineWriter(cw, format, st, true)
		if err != nil {
			t.Fatal(err)
		}
		e, ok := st.Next()
		if !ok {
			t.Fatal(st.Err())
		}
		if err := lw.Write(e); err != nil {
			t.Fatal(err)
		}
		if err := lw.Flush(); !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("%s: Flush over a short write returned %v, want io.ErrShortWrite", format, err)
		}
		if err := lw.Write(e); !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("%s: Write after the short write returned %v", format, err)
		}
		if err := lw.Flush(); !errors.Is(err, io.ErrShortWrite) || sink.calls != 1 {
			t.Fatalf("%s: second Flush returned %v after %d sink writes, want the same error and no new write", format, err, sink.calls)
		}
		if cw.n != int64(sink.took) {
			t.Fatalf("%s: cursor %d, sink took %d", format, cw.n, sink.took)
		}
	}
}

// TestDaemonAndDirectSinkOneFormat: a jsonl run through the daemon
// (counting and pacer layers in place) and the same spec and population
// drained straight into the registry's sink, as cptscenario does, write the
// same bytes — the two binaries' file output is one format.
func TestDaemonAndDirectSinkOneFormat(t *testing.T) {
	_, ts := newTestServer(t)
	dir := t.TempDir()
	served, direct := filepath.Join(dir, "served.jsonl"), filepath.Join(dir, "direct.jsonl")

	var info RunInfo
	do(t, "POST", ts.URL+"/runs", StartRequest{
		Scenario: "flash-crowd", UEs: 150, Sink: "jsonl", Out: served,
	}, &info, http.StatusCreated)
	if final := waitState(t, ts.URL, info.ID); final.State != StateDone {
		t.Fatalf("daemon run ended %s (err %q)", final.State, final.Error)
	}

	spec, err := scenario.Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	st, err := spec.Open(scenario.RunOpts{UEs: 150, TempDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sink, err := scenario.NewSink(scenario.SinkConfig{Name: "jsonl", Out: direct})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sink.Consume(context.Background(), st); err != nil {
		t.Fatal(err)
	}

	got, _ := os.ReadFile(served)
	want, _ := os.ReadFile(direct)
	if len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("daemon wrote %d bytes, the direct sink %d: not one format", len(got), len(want))
	}
}
