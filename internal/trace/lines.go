package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"

	"cptgpt/internal/events"
)

// The two event-line formats, one event per line, UE streams interleaved
// in whatever order the writer is handed them.
const (
	formatJSONL = "jsonl"
	formatCSV   = "csv"
)

// csvHeader is the csv format's column header.
const csvHeader = "ue_id,device_type,timestamp,event_type"

// lineBlock is the size at which LineWriter hands its buffer to the
// underlying writer. A block is written after the line that fills it, so
// it ends on a line boundary and runs a line past the limit at most.
const lineBlock = 64 << 10

// plainByte marks the bytes that encoding/json (with HTML escaping, as
// json.Encoder has it by default) and encoding/csv both copy through
// unchanged wherever they stand in a string: printable ASCII without
// `"`, `\`, `<`, `>`, `&` and `,`. Space is plain except in front, where
// csv quotes the field.
var plainByte = func() (t [256]bool) {
	for c := byte(' '); c <= '~'; c++ {
		t[c] = true
	}
	for _, c := range []byte("\"\\<>&,") {
		t[c] = false
	}
	return t
}()

// plainASCII reports whether both line formats write s as it is.
func plainASCII(s []byte) bool {
	if len(s) > 0 && s[0] == ' ' {
		return false
	}
	for _, c := range s {
		if !plainByte[c] {
			return false
		}
	}
	return true
}

// jsonString returns s as encoding/json writes a string value.
func jsonString(s string) []byte {
	b, _ := json.Marshal(s) // a string always marshals
	return b
}

// csvField returns s as encoding/csv writes one field of a record.
func csvField(s string) []byte {
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	_ = cw.Write([]string{s}) // into memory: cannot fail
	cw.Flush()
	return b.Bytes()[:b.Len()-1] // less the record's newline
}

// appendJSONFloat appends f as encoding/json's floatEncoder writes a
// float64: "like ES6 number to string conversion" — 'f' (appendTime), but
// 'e' when "abs < 1e-6 || abs >= 1e21", then "clean up e-09 to e-9". NaN
// and ±Inf are json's own *json.UnsupportedValueError.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if abs := math.Abs(f); abs >= 1e-6 && abs < 1e21 || abs == 0 {
		return appendTime(b, f), nil
	}
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return b, err
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// LineWriter is the one event writer: it encodes events one at a time in
// the jsonl or csv trace format, exposing the encoder's flush boundary:
// after Flush, every event passed to Write has fully reached the
// underlying writer. SaveFile and the scenario engine's file sinks are
// built on it; a journaled sink aligns durable checkpoints (byte cursor ↔
// event count) with event boundaries through it.
//
// The bytes are those of json.Encoder.Encode on {"t", "ue_id",
// "device_type", "event_type"} and of csv.Writer.Write on (ue_id,
// device_type, timestamp, event_type). Lines are appended field by field
// to one block buffer: times by appendTime under the rules quoted at
// appendJSONFloat, the device and event type names escaped once per value
// by the standard encoders, and a UE id that is not plainASCII re-encoded
// by them, so no escaping rule lives here. The underlying writer receives
// whole lines only, in blocks of about lineBlock bytes; the first failed
// block write sticks, as a bufio.Writer's does, and nothing of a failed
// block is sent again.
type LineWriter struct {
	w   io.Writer
	csv bool
	buf []byte
	err error // first failed block write
	n   int

	// Per-value line fragments, delimiters included: for jsonl
	// `,"device_type":"phone"` and `,"event_type":"ATCH"}` + newline, for
	// csv `,phone,` and `,ATCH` + newline.
	dev [events.NumDeviceTypes][]byte
	typ [events.NumTypes][]byte
}

// NewLineWriter builds an event encoder for format "jsonl" or "csv". For
// csv, header selects whether the column header is emitted first — a
// resumed file already has one on disk; jsonl ignores it.
func NewLineWriter(w io.Writer, format string, header bool) (*LineWriter, error) {
	if format != formatJSONL && format != formatCSV {
		return nil, fmt.Errorf("trace: unknown line format %q (want jsonl or csv)", format)
	}
	lw := &LineWriter{w: w, csv: format == formatCSV, buf: make([]byte, 0, lineBlock+512)}
	if lw.csv && header {
		lw.buf = append(lw.buf, csvHeader+"\n"...)
	}
	for d := range lw.dev {
		lw.dev[d] = lw.deviceFragment(events.DeviceType(d))
	}
	for t := range lw.typ {
		lw.typ[t] = lw.typeFragment(events.Type(t))
	}
	return lw, nil
}

func (lw *LineWriter) deviceFragment(d events.DeviceType) []byte {
	if lw.csv {
		return append(append([]byte{','}, csvField(d.String())...), ',')
	}
	return append([]byte(`,"device_type":`), jsonString(d.String())...)
}

func (lw *LineWriter) typeFragment(t events.Type) []byte {
	if lw.csv {
		return append(append([]byte{','}, csvField(t.String())...), '\n')
	}
	return append(append([]byte(`,"event_type":`), jsonString(t.String())...), '}', '\n')
}

// Write encodes one event of the UE whose rendered id is id. An event
// that cannot be encoded (a NaN or infinite time in jsonl) is reported and
// leaves no bytes behind.
func (lw *LineWriter) Write(t float64, id []byte, dev events.DeviceType, typ events.Type) error {
	if lw.err != nil {
		return lw.writeErr(lw.err)
	}
	b := lw.buf
	if lw.csv {
		if plainASCII(id) {
			b = append(b, id...)
		} else {
			b = append(b, csvField(string(id))...)
		}
		b = append(b, lw.deviceOf(dev)...)
		b = appendTime(b, t)
	} else {
		var err error
		if b, err = appendJSONFloat(append(b, `{"t":`...), t); err != nil {
			return lw.writeErr(err)
		}
		b = append(b, `,"ue_id":`...)
		if plainASCII(id) {
			b = append(append(append(b, '"'), id...), '"')
		} else {
			b = append(b, jsonString(string(id))...)
		}
		b = append(b, lw.deviceOf(dev)...)
	}
	lw.buf = append(b, lw.typeOf(typ)...)
	lw.n++
	if len(lw.buf) >= lineBlock {
		if err := lw.Flush(); err != nil {
			return lw.writeErr(err)
		}
	}
	return nil
}

func (lw *LineWriter) deviceOf(d events.DeviceType) []byte {
	if d.Valid() {
		return lw.dev[d]
	}
	return lw.deviceFragment(d)
}

func (lw *LineWriter) typeOf(t events.Type) []byte {
	if t.Valid() {
		return lw.typ[t]
	}
	return lw.typeFragment(t)
}

func (lw *LineWriter) writeErr(err error) error {
	if lw.csv {
		return fmt.Errorf("trace: writing CSV row %d: %w", lw.n, err)
	}
	return fmt.Errorf("trace: writing event %d: %w", lw.n, err)
}

// Flush pushes every written event through to the underlying writer.
func (lw *LineWriter) Flush() error {
	if lw.err != nil || len(lw.buf) == 0 {
		return lw.err
	}
	n, err := lw.w.Write(lw.buf)
	if err == nil && n < len(lw.buf) {
		err = io.ErrShortWrite
	}
	lw.buf = lw.buf[:0]
	lw.err = err
	return err
}

// Count returns the number of events written.
func (lw *LineWriter) Count() int { return lw.n }
