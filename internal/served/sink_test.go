package served

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"cptgpt/internal/runlog"
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

// diskFull is a sink file with room bytes left on its disk: a write that
// does not fit passes what does and returns ENOSPC with it — n > 0 together
// with the error, as write(2) answers when the disk fills mid-buffer.
type diskFull struct {
	w    io.Writer
	room int
}

func (d *diskFull) Write(p []byte) (int, error) {
	if len(p) <= d.room {
		d.room -= len(p)
		return d.w.Write(p)
	}
	n, err := d.w.Write(p[:d.room])
	d.room -= n
	if err == nil {
		err = syscall.ENOSPC
	}
	return n, err
}

// TestSinkWriteErrorFailsRun pins the one file-sink failure policy: a
// write the disk cuts short fails its run with the error named, and the
// file holds exactly the bytes the disk took — nothing discarded, nothing
// written twice — while a sibling run finishes byte-identical. The run's
// last journaled checkpoint covers a reference prefix that ends on a line
// boundary and holds its Events, so the cursor stays exact.
func TestSinkWriteErrorFailsRun(t *testing.T) {
	const ues = 150
	formats := []string{"jsonl", "csv", "jsonl"} // the last is the sibling
	refs := map[string][]byte{}
	for _, f := range formats[:2] {
		refs[f], _ = renderReference(t, "flash-crowd", ues, f)
	}
	// A fresh daemon numbers its runs from run-1: the faulty two come first,
	// their disks filling halfway through the file.
	room := map[string]int{"run-1": len(refs["jsonl"]) / 2, "run-2": len(refs["csv"]) / 2}
	injectSinkFaults(t, func(id string, w io.Writer) io.Writer {
		if n, ok := room[id]; ok {
			return &diskFull{w: w, room: n}
		}
		return w
	})
	jdir, dir := t.TempDir(), t.TempDir()
	_, ts := newDurableServer(t, Options{JournalDir: jdir, CheckpointEvents: 100})
	out := func(i int) string { return filepath.Join(dir, fmt.Sprintf("%d.%s", i, formats[i])) }
	for i, format := range formats {
		var info RunInfo
		do(t, "POST", ts.URL+"/runs", StartRequest{
			Scenario: "flash-crowd", UEs: ues, Sink: format, Out: out(i),
		}, &info, http.StatusCreated)
		if want := fmt.Sprintf("run-%d", i+1); info.ID != want {
			t.Fatalf("run id %s, want %s", info.ID, want)
		}
	}

	for i, format := range formats {
		id, ref := fmt.Sprintf("run-%d", i+1), refs[format]
		final := waitState(t, ts.URL, id)
		got, err := os.ReadFile(out(i))
		if err != nil {
			t.Fatal(err)
		}
		n, faulty := room[id]
		if !faulty {
			if final.State != StateDone || !bytes.Equal(got, ref) {
				t.Fatalf("sibling run ended %s (err %q) with %d bytes of %d", final.State, final.Error, len(got), len(ref))
			}
			continue
		}
		if final.State != StateFailed || !strings.Contains(final.Error, "no space left on device") {
			t.Fatalf("%s: run ended %s (err %q), want failed on ENOSPC", format, final.State, final.Error)
		}
		if !bytes.Equal(got, ref[:n]) {
			t.Fatalf("%s: file holds %d bytes, want exactly the %d-byte reference prefix the disk took", format, len(got), n)
		}
		st, err := runlog.Load(filepath.Join(jdir, id+runlog.Ext))
		if err != nil {
			t.Fatal(err)
		}
		c := st.Checkpoint
		if st.State != runlog.StateFailed || c == nil || c.SinkBytes <= 0 || c.SinkBytes >= int64(n) {
			t.Fatalf("%s: journal ends %s with checkpoint %+v; want failed, with a cursor short of %d bytes", format, st.State, c, n)
		}
		prefix := got[:c.SinkBytes]
		lines := int64(bytes.Count(prefix, []byte{'\n'}))
		if format == "csv" {
			lines-- // the header line precedes the data
		}
		if !bytes.HasPrefix(ref, prefix) || prefix[len(prefix)-1] != '\n' || lines != c.Events {
			t.Fatalf("%s: checkpoint prefix of %d bytes holds %d lines, cursor says %d (or is no line-aligned reference prefix)",
				format, c.SinkBytes, lines, c.Events)
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
