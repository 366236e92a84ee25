package scenario

import (
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

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
	lw      *LineWriter
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

// Cursor flushes the encoder and fsyncs the file before it reports the
// position, so a recorded cursor always implies a durable prefix holding
// exactly the events consumed so far. Where there is no byte position to
// vouch for (".gz", stdout, no counting layer) the cursor is zero and a
// resume starts the file over.
func (s *fileSink) Cursor() (Cursor, bool) {
	if s.lw == nil {
		return Cursor{}, false
	}
	if s.f == nil || s.written == nil || s.gz() {
		return Cursor{}, true
	}
	if s.lw.Flush() != nil || s.f.Sync() != nil {
		return Cursor{}, false
	}
	return Cursor{Bytes: s.written(), Lines: s.from.Lines + int64(s.lw.Count())}, true
}

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
	lw, err := NewLineWriter(w, s.cfg.Name, src, s.from.Bytes == 0)
	if err != nil {
		return nil, err
	}
	s.lw = lw
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	defer func() { sp.End(int64(lw.Count()), s.cfg.Name) }()
	for {
		e, ok := src.Next()
		if !ok {
			break
		}
		if err = lw.Write(e); err != nil {
			break
		}
	}
	if err == nil {
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
	return fileResult{Events: s.from.Lines + int64(lw.Count()), Out: s.cfg.Out}, nil
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
