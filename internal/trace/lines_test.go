package trace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"cptgpt/internal/events"
)

// blockLog records every block a LineWriter hands it and fails the n-th
// call (1-based; 0 = never), taking accept bytes of it.
type blockLog struct {
	blocks [][]byte
	n      int
	accept int
}

var errBlock = errors.New("block refused")

func (w *blockLog) Write(p []byte) (int, error) {
	w.blocks = append(w.blocks, append([]byte(nil), p...))
	if len(w.blocks) == w.n {
		return min(w.accept, len(p)), errBlock
	}
	return len(p), nil
}

type lineEvent struct {
	t   float64
	id  []byte
	dev events.DeviceType
	typ events.Type
}

// TestWriteLinesMatchesWrite: events rendered into Lines, in runs of any
// length, and handed over by WriteLines reach the underlying writer in the
// blocks Write would have made of them one by one, with the same count
// and the same first error — a refused block at the line that completes
// it, or an unencodable time numbered as the event it is — and nothing
// written after a refused block.
func TestWriteLinesMatchesWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 150; trial++ {
		format := []string{formatJSONL, formatCSV}[trial%2]
		header := trial%3 != 0
		n := rng.Intn(6000)
		evs := make([]lineEvent, n)
		for i := range evs {
			id := fmt.Sprintf("ue-%d", rng.Intn(1000))
			if rng.Intn(500) == 0 {
				id = strings.Repeat("x,\"", rng.Intn(30_000)) // a line that spans a block on its own
			}
			evs[i] = lineEvent{t: rng.Float64() * 3600, id: []byte(id), dev: events.DeviceType(rng.Intn(3)), typ: events.Type(rng.Intn(5))}
			if rng.Intn(4000) == 0 {
				evs[i].t = math.NaN()
			}
		}
		failAt := rng.Intn(4) // 0: no block is refused
		accept := rng.Intn(lineBlock)

		// One event at a time, stopping at the first error.
		want := &blockLog{n: failAt, accept: accept}
		ref, err := NewLineWriter(want, format, header)
		if err != nil {
			t.Fatal(err)
		}
		var wantErr error
		for _, e := range evs {
			if wantErr = ref.Write(e.t, e.id, e.dev, e.typ); wantErr != nil {
				break
			}
		}

		// Runs of random length, each rendered away from the writer,
		// stopping at the first error as the file sink does.
		got := &blockLog{n: failAt, accept: accept}
		lw, err := NewLineWriter(got, format, header)
		if err != nil {
			t.Fatal(err)
		}
		var ls Lines
		var gotErr error
		for lo := 0; lo < n && gotErr == nil; {
			hi := min(n, lo+1+rng.Intn(1500))
			ls.Reset()
			for _, e := range evs[lo:hi] {
				if !ls.Append(lw.Appender(), e.t, e.id, e.dev, e.typ) {
					break
				}
			}
			gotErr = lw.WriteLines(&ls)
			lo = hi
		}

		what := fmt.Sprintf("trial %d (%s, %d events, block %d refused)", trial, format, n, failAt)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: WriteLines error %v, Write error %v", what, gotErr, wantErr)
		}
		if lw.Count() != ref.Count() {
			t.Fatalf("%s: WriteLines counted %d events, Write %d", what, lw.Count(), ref.Count())
		}
		if len(got.blocks) != len(want.blocks) {
			t.Fatalf("%s: %d blocks written, Write made %d", what, len(got.blocks), len(want.blocks))
		}
		for i := range got.blocks {
			if string(got.blocks[i]) != string(want.blocks[i]) {
				t.Fatalf("%s: block %d differs from Write's", what, i)
			}
		}
		if fmt.Sprint(lw.Flush()) != fmt.Sprint(ref.Flush()) || len(got.blocks) != len(want.blocks) ||
			len(got.blocks) > 0 && string(got.blocks[len(got.blocks)-1]) != string(want.blocks[len(want.blocks)-1]) {
			t.Fatalf("%s: the final Flush differs from Write's", what)
		}
	}
}

// TestLinesStopAtRenderError: an event that cannot be rendered ends a
// Lines run there — no bytes of it, no later line — until Reset.
func TestLinesStopAtRenderError(t *testing.T) {
	la, err := newLineAppender(formatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	var ls Lines
	id := []byte("ue-1")
	if !ls.Append(la, 1, id, events.Phone, 0) || ls.Append(la, math.Inf(1), id, events.Phone, 0) || ls.Append(la, 2, id, events.Phone, 0) {
		t.Fatal("Append accepted a line at or after an unencodable time")
	}
	if ls.Len() != 1 || strings.Count(string(ls.buf), "\n") != 1 || !strings.HasSuffix(string(ls.buf), "\n") {
		t.Fatalf("Lines holds %d lines, %q", ls.Len(), ls.buf)
	}
	ls.Reset()
	if !ls.Append(la, 2, id, events.Phone, 0) || ls.Len() != 1 {
		t.Fatal("Reset did not clear the error")
	}
	if _, err := newLineAppender("xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}
