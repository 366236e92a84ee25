package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"cptgpt/internal/events"
)

// jsonlHeader is the first line of a JSONL trace file. Streams is written
// as -1 (the writer is incremental and does not know the count); the reader
// ignores it and reads until EOF, so files with a counted header load too.
type jsonlHeader struct {
	Format     string `json:"format"`
	Generation string `json:"generation"`
	Streams    int    `json:"streams"`
}

// StreamWriter writes a trace in the JSONL trace format — a header object,
// then one Stream object per line — incrementally, one UE stream at a
// time: callers that synthesize millions of streams hand each batch to the
// writer as it is produced instead of materializing a whole Dataset first.
// It is the only JSONL writer; SaveFile goes through it.
type StreamWriter struct {
	bw      *bufio.Writer
	enc     *json.Encoder
	file    io.Closer // the file (and compressor) CreateStream opened; nil otherwise
	wrote   int
	started bool
	gen     events.Generation
}

// NewStreamWriter starts a JSONL trace on w. The header is emitted lazily
// on the first WriteStream (or on Close for an empty trace).
func NewStreamWriter(w io.Writer, gen events.Generation) *StreamWriter {
	bw := bufio.NewWriter(w)
	return &StreamWriter{bw: bw, enc: json.NewEncoder(bw), gen: gen}
}

// CreateStream opens path and returns a StreamWriter over it. A ".gz"
// suffix transparently gzip-compresses the output; the trace format is
// chosen from the extension under the ".gz" (only JSONL is supported for
// streaming writes). Close flushes and closes the file.
func CreateStream(path string, gen events.Generation) (*StreamWriter, error) {
	f, err := createFile(path)
	if err != nil {
		return nil, err
	}
	sw := NewStreamWriter(f, gen)
	sw.file = f
	return sw, nil
}

func (w *StreamWriter) header() error {
	if w.started {
		return nil
	}
	w.started = true
	hdr := jsonlHeader{Format: "cptgpt-trace/1", Generation: w.gen.String(), Streams: -1}
	if err := w.enc.Encode(hdr); err != nil {
		return fmt.Errorf("trace: writing JSONL header: %w", err)
	}
	return nil
}

// WriteStream appends one UE stream to the trace.
func (w *StreamWriter) WriteStream(s *Stream) error {
	if err := w.header(); err != nil {
		return err
	}
	if err := w.enc.Encode(s); err != nil {
		return fmt.Errorf("trace: writing stream %d: %w", w.wrote, err)
	}
	w.wrote++
	return nil
}

// Streams returns the number of streams written so far.
func (w *StreamWriter) Streams() int { return w.wrote }

// Close flushes buffered output and closes any file/compressor owned by the
// writer (writers created with NewStreamWriter leave the caller's io.Writer
// open). An empty trace still gets a valid header.
func (w *StreamWriter) Close() error {
	if err := w.header(); err != nil {
		return err
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("trace: flushing: %w", err)
	}
	if w.file != nil {
		if err := w.file.Close(); err != nil {
			return fmt.Errorf("trace: closing: %w", err)
		}
	}
	return nil
}

// StreamReader reads a JSONL trace incrementally, one UE stream per Next
// call, without materializing the whole Dataset. It is the only JSONL
// reader; LoadFile goes through it.
type StreamReader struct {
	dec  *json.Decoder
	file io.Closer // the file (and decompressor) OpenStream opened; nil otherwise
	gen  events.Generation
	n    int
}

// NewStreamReader reads the JSONL header from r and positions the reader at
// the first stream.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var hdr jsonlHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("trace: reading JSONL header: %w", err)
	}
	if hdr.Format != "cptgpt-trace/1" {
		return nil, fmt.Errorf("trace: unsupported trace format %q", hdr.Format)
	}
	gen, err := events.ParseGeneration(hdr.Generation)
	if err != nil {
		return nil, fmt.Errorf("trace: JSONL header: %w", err)
	}
	return &StreamReader{dec: dec, gen: gen}, nil
}

// OpenStream opens a JSONL trace at path, transparently decompressing a
// ".gz" suffix. Close releases the file.
func OpenStream(path string) (*StreamReader, error) {
	f, err := openFile(path)
	if err != nil {
		return nil, err
	}
	sr, err := NewStreamReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	sr.file = f
	return sr, nil
}

// Generation returns the generation declared in the trace header.
func (r *StreamReader) Generation() events.Generation { return r.gen }

// Next reads the next UE stream into s. It returns io.EOF (and leaves s
// untouched) when the trace is exhausted.
func (r *StreamReader) Next(s *Stream) error {
	if err := r.dec.Decode(s); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("trace: reading stream %d: %w", r.n, err)
	}
	r.n++
	return nil
}

// Close releases any file/compressor owned by the reader.
func (r *StreamReader) Close() error {
	if r.file != nil {
		if err := r.file.Close(); err != nil {
			return fmt.Errorf("trace: closing: %w", err)
		}
	}
	return nil
}
