package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cptgpt/internal/events"
)

// WriteCSV emits the dataset in the flat interchange format used by the
// command-line tools: one event per row,
//
//	ue_id,device_type,timestamp,event_type
//
// with a header row. Rows are grouped by stream in dataset order.
func WriteCSV(w io.Writer, d *Dataset) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"ue_id", "device_type", "timestamp", "event_type"}); err != nil {
		return fmt.Errorf("trace: writing CSV header: %w", err)
	}
	row := make([]string, 4)
	for i := range d.Streams {
		s := &d.Streams[i]
		row[0] = s.UEID
		row[1] = s.Device.String()
		for _, e := range s.Events {
			row[2] = strconv.FormatFloat(e.Time, 'f', -1, 64)
			row[3] = e.Type.String()
			if err := cw.Write(row); err != nil {
				return fmt.Errorf("trace: writing CSV row: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses the format produced by WriteCSV. Consecutive rows with the
// same ue_id are grouped into one stream; the generation must be supplied by
// the caller since the CSV carries only event names.
func ReadCSV(r io.Reader, gen events.Generation) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV header: %w", err)
	}
	if header[0] != "ue_id" {
		return nil, fmt.Errorf("trace: unexpected CSV header %v", header)
	}
	d := &Dataset{Generation: gen}
	var cur *Stream
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading CSV line %d: %w", line, err)
		}
		dev, err := events.ParseDeviceType(rec[1])
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: %w", line, err)
		}
		ts, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: bad timestamp: %w", line, err)
		}
		et, err := events.ParseType(rec[3])
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: %w", line, err)
		}
		if cur == nil || cur.UEID != rec[0] {
			d.Streams = append(d.Streams, Stream{UEID: rec[0], Device: dev})
			cur = &d.Streams[len(d.Streams)-1]
		}
		cur.Events = append(cur.Events, Event{Time: ts, Type: et})
	}
	return d, nil
}

// SaveFile writes the dataset to path, choosing the format by extension:
// ".csv" for CSV, anything else for JSONL; a ".gz" suffix transparently
// gzip-compresses either format. JSONL goes through the incremental
// StreamWriter, so no second copy of the dataset is buffered.
func SaveFile(path string, d *Dataset) error {
	if !isCSV(path) {
		sw, err := CreateStream(path, d.Generation)
		if err != nil {
			return err
		}
		for i := range d.Streams {
			if err := sw.WriteStream(&d.Streams[i]); err != nil {
				sw.Close()
				return err
			}
		}
		return sw.Close()
	}
	w, err := createFile(path)
	if err != nil {
		return err
	}
	if err := WriteCSV(w, d); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// LoadFile reads a dataset from path, choosing the format by extension and
// transparently decompressing a ".gz" suffix. The generation argument is
// only consulted for CSV files (JSONL embeds it). JSONL goes through the
// incremental StreamReader.
func LoadFile(path string, gen events.Generation) (*Dataset, error) {
	if !isCSV(path) {
		sr, err := OpenStream(path)
		if err != nil {
			return nil, err
		}
		defer sr.Close()
		d := &Dataset{Generation: sr.Generation()}
		for {
			var s Stream
			if err := sr.Next(&s); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			d.Streams = append(d.Streams, s)
		}
		return d, nil
	}
	r, err := openFile(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return ReadCSV(r, gen)
}

// isCSV reports whether path names a CSV trace; the format is the extension
// under any ".gz" ("trace.csv.gz" is CSV, gzipped).
func isCSV(path string) bool {
	return strings.HasSuffix(strings.TrimSuffix(path, ".gz"), ".csv")
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
