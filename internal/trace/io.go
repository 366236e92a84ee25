package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"cptgpt/internal/events"
)

// SaveFile writes the dataset to path as event lines (LineWriter), stream
// by stream: csv under a ".csv" extension, jsonl under any other; a ".gz"
// suffix gzip-compresses either. A stream with no events writes no line.
func SaveFile(path string, d *Dataset) error {
	w, err := createFile(path)
	if err != nil {
		return err
	}
	lw, _ := NewLineWriter(w, fileFormat(path), true) // a known format
	var id []byte
	for i := range d.Streams {
		s := &d.Streams[i]
		id = append(id[:0], s.UEID...)
		for _, e := range s.Events {
			if err := lw.Write(e.Time, id, s.Device, e.Type); err != nil {
				w.Close()
				return err
			}
		}
	}
	if err := lw.Flush(); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// LoadFile reads a dataset from path, choosing the format by extension and
// decompressing a ".gz" suffix. It reads the event lines LineWriter writes
// (csv, or jsonl) and groups them by ue_id across the whole file: streams
// in order of first appearance, each stream's events in file order. The
// lines carry no generation, so gen is the dataset's, and an event type
// outside events.Vocabulary(gen) is an error. A jsonl file that opens with
// a cptgpt-trace/1 header (the per-stream format this package once wrote)
// is read as that format, under the generation its header names.
func LoadFile(path string, gen events.Generation) (*Dataset, error) {
	r, err := openFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	g := grouper{d: &Dataset{Generation: gen}, idx: map[string]int{}}
	if fileFormat(path) == formatCSV {
		err = g.readCSV(r)
	} else {
		err = g.readJSONL(r)
	}
	if err != nil {
		return nil, fmt.Errorf("trace: %s: %w", path, err)
	}
	return g.d, nil
}

// grouper builds a dataset from rows, one stream per distinct UE id.
type grouper struct {
	d   *Dataset
	idx map[string]int // UE id → its stream's index in d.Streams
}

// add appends one event to the UE's stream, opening the stream on the UE's
// first row. Every accepted row survives SaveFile unchanged.
func (g *grouper) add(id string, dev events.DeviceType, t float64, typ events.Type) error {
	if !dev.Valid() {
		return fmt.Errorf("unknown device type %d", dev)
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return fmt.Errorf("timestamp %v is not finite", t)
	}
	if events.VocabIndex(g.d.Generation, typ) < 0 {
		return vocabError(g.d.Generation, typ)
	}
	i, ok := g.idx[id]
	if !ok {
		i = len(g.d.Streams)
		g.idx[id] = i
		g.d.Streams = append(g.d.Streams, Stream{UEID: id, Device: dev})
	}
	s := &g.d.Streams[i]
	if s.Device != dev {
		return fmt.Errorf("UE %q is both %v and %v", id, s.Device, dev)
	}
	s.Events = append(s.Events, Event{Time: t, Type: typ})
	return nil
}

// vocabError names the generation whose vocabulary typ is in, if any.
func vocabError(gen events.Generation, typ events.Type) error {
	for _, other := range []events.Generation{events.Gen4G, events.Gen5G} {
		if events.VocabIndex(other, typ) >= 0 {
			return fmt.Errorf("event type %v is not a %v event; read a %v trace with -gen %v", typ, gen, other, other)
		}
	}
	return fmt.Errorf("event type %v is not a %v event", typ, gen)
}

// readCSV reads csv rows under the column header.
func (g *grouper) readCSV(r io.Reader) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("reading CSV header: %w", err)
	}
	if strings.Join(header, ",") != csvHeader {
		return fmt.Errorf("CSV header %q, want %q", strings.Join(header, ","), csvHeader)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		} else if err != nil {
			return err // a *csv.ParseError names its line
		}
		line, _ := cr.FieldPos(0)
		if strings.ContainsRune(rec[0], '\r') {
			// encoding/csv reads a "\r\n" inside a quoted field as "\n".
			return fmt.Errorf("CSV line %d: a UE id with a carriage return does not survive csv", line)
		}
		t, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return fmt.Errorf("CSV line %d: bad timestamp: %w", line, err)
		}
		if err := g.addNamed(rec[0], rec[1], t, rec[3]); err != nil {
			return fmt.Errorf("CSV line %d: %w", line, err)
		}
	}
}

// addNamed adds a row whose device and event type are given by name.
func (g *grouper) addNamed(id, device string, t float64, typ string) error {
	dev, err := events.ParseDeviceType(device)
	if err != nil {
		return err
	}
	et, err := events.ParseType(typ)
	if err != nil {
		return err
	}
	return g.add(id, dev, t, et)
}

// eventLine is one jsonl event line as LineWriter writes it, or the
// header line of a legacy cptgpt-trace/1 file: {"format", "generation",
// "streams"}, then one Stream object per line with event types and
// devices as numeric codes (the stream count, or -1, is not needed).
type eventLine struct {
	Time   float64 `json:"t"`
	UEID   string  `json:"ue_id"`
	Device string  `json:"device_type"`
	Type   string  `json:"event_type"`

	Format     string `json:"format"`
	Generation string `json:"generation"`
}

// readJSONL reads jsonl event lines, or a cptgpt-trace/1 file.
func (g *grouper) readJSONL(r io.Reader) error {
	dec := json.NewDecoder(bufio.NewReader(r))
	for n := 1; ; n++ {
		var l eventLine
		if err := dec.Decode(&l); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("reading event %d: %w", n, err)
		}
		if n == 1 && l.Format != "" {
			return g.readLegacy(dec, l.Format, l.Generation)
		}
		if err := g.addNamed(l.UEID, l.Device, l.Time, l.Type); err != nil {
			return fmt.Errorf("event %d: %w", n, err)
		}
	}
}

// readLegacy reads the streams of a cptgpt-trace/1 file after its header.
func (g *grouper) readLegacy(dec *json.Decoder, format, generation string) error {
	if format != "cptgpt-trace/1" {
		return fmt.Errorf("unsupported trace format %q", format)
	}
	gen, err := events.ParseGeneration(generation)
	if err != nil {
		return fmt.Errorf("header: %w", err)
	}
	g.d.Generation = gen
	for n := 0; ; n++ {
		var s Stream
		if err := dec.Decode(&s); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("reading stream %d: %w", n, err)
		}
		for _, e := range s.Events {
			if err := g.add(s.UEID, s.Device, e.Time, e.Type); err != nil {
				return fmt.Errorf("stream %d: %w", n, err)
			}
		}
	}
}

// fileFormat is the line format of path: csv under a ".csv" extension
// beneath any ".gz" ("trace.csv.gz" is csv, gzipped), jsonl otherwise.
func fileFormat(path string) string {
	if strings.HasSuffix(strings.TrimSuffix(path, ".gz"), ".csv") {
		return formatCSV
	}
	return formatJSONL
}

// layered closes a stack of closers outermost first (the compressor, then
// the file under it) and reports the first error.
type layered []io.Closer

func (l layered) Close() (err error) {
	for _, c := range l {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// createFile creates path for writing, gzip-compressing under a ".gz"
// suffix. Closing the result finishes the compressed stream and closes the
// file.
func createFile(path string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace: creating %s: %w", path, err)
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	gz := gzip.NewWriter(f)
	return struct {
		io.Writer
		io.Closer
	}{gz, layered{gz, f}}, nil
}

// openFile opens path for reading, decompressing under a ".gz" suffix.
func openFile(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: opening %s: %w", path, err)
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	gz, err := gzip.NewReader(bufio.NewReader(f))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("trace: opening gzip %s: %w", path, err)
	}
	return struct {
		io.Reader
		io.Closer
	}{gz, layered{gz, f}}, nil
}
