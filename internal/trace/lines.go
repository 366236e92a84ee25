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

// LineAppender holds the line rules of one event-line format, jsonl or
// csv: it renders one event as its line. A LineWriter renders through its
// own (Appender), and so do the file sinks' encoder goroutines, which
// render batches of lines (Lines.Append) in parallel for the LineWriter to
// write in order. An appender is read-only once built, so any number of
// goroutines may use one at once.
//
// The bytes are those of json.Encoder.Encode on {"t", "ue_id",
// "device_type", "event_type"} and of csv.Writer.Write on (ue_id,
// device_type, timestamp, event_type). A line is appended field by field:
// the time by appendTime under the rules quoted at appendJSONFloat, the
// device and event type names escaped once per value by the standard
// encoders, and a UE id that is not plainASCII re-encoded by them, so no
// escaping rule lives here.
type LineAppender struct {
	csv bool

	// Per-value line fragments, delimiters included: for jsonl
	// `,"device_type":"phone"` and `,"event_type":"ATCH"}` + newline, for
	// csv `,phone,` and `,ATCH` + newline.
	dev [events.NumDeviceTypes][]byte
	typ [events.NumTypes][]byte
}

// newLineAppender builds the line rules of format "jsonl" or "csv".
func newLineAppender(format string) (*LineAppender, error) {
	if format != formatJSONL && format != formatCSV {
		return nil, fmt.Errorf("trace: unknown line format %q (want jsonl or csv)", format)
	}
	la := &LineAppender{csv: format == formatCSV}
	for d := range la.dev {
		la.dev[d] = la.deviceFragment(events.DeviceType(d))
	}
	for t := range la.typ {
		la.typ[t] = la.typeFragment(events.Type(t))
	}
	return la, nil
}

func (la *LineAppender) deviceFragment(d events.DeviceType) []byte {
	if la.csv {
		return append(append([]byte{','}, csvField(d.String())...), ',')
	}
	return append([]byte(`,"device_type":`), jsonString(d.String())...)
}

func (la *LineAppender) typeFragment(t events.Type) []byte {
	if la.csv {
		return append(append([]byte{','}, csvField(t.String())...), '\n')
	}
	return append(append([]byte(`,"event_type":`), jsonString(t.String())...), '}', '\n')
}

// appendLine appends the line of one event of the UE whose rendered id is
// id. An event that cannot be encoded (a NaN or infinite time in jsonl) is
// reported, and b comes back as it was.
func (la *LineAppender) appendLine(b []byte, t float64, id []byte, dev events.DeviceType, typ events.Type) ([]byte, error) {
	if la.csv {
		if plainASCII(id) {
			b = append(b, id...)
		} else {
			b = append(b, csvField(string(id))...)
		}
		b = append(b, la.deviceOf(dev)...)
		b = appendTime(b, t)
	} else {
		n := len(b)
		var err error
		if b, err = appendJSONFloat(append(b, `{"t":`...), t); err != nil {
			return b[:n], err
		}
		b = append(b, `,"ue_id":`...)
		if plainASCII(id) {
			b = append(append(append(b, '"'), id...), '"')
		} else {
			b = append(b, jsonString(string(id))...)
		}
		b = append(b, la.deviceOf(dev)...)
	}
	return append(b, la.typeOf(typ)...), nil
}

func (la *LineAppender) deviceOf(d events.DeviceType) []byte {
	if d.Valid() {
		return la.dev[d]
	}
	return la.deviceFragment(d)
}

func (la *LineAppender) typeOf(t events.Type) []byte {
	if t.Valid() {
		return la.typ[t]
	}
	return la.typeFragment(t)
}

// Lines is a run of consecutive events' lines, rendered by a LineAppender
// away from the LineWriter that writes them (LineWriter.WriteLines): the
// lines back to back, where each one ends, and, when an event could not
// be rendered, why — the run ends before that event.
type Lines struct {
	buf  []byte
	ends []int
	err  error
}

// Reset empties ls and keeps its memory.
func (ls *Lines) Reset() {
	ls.buf, ls.ends, ls.err = ls.buf[:0], ls.ends[:0], nil
}

// Append renders one more event's line through la (appendLine). It reports
// false, and keeps the error, when the event cannot be rendered; ls then
// takes no more lines until Reset.
func (ls *Lines) Append(la *LineAppender, t float64, id []byte, dev events.DeviceType, typ events.Type) bool {
	if ls.err != nil {
		return false
	}
	ls.buf, ls.err = la.appendLine(ls.buf, t, id, dev, typ)
	if ls.err != nil {
		return false
	}
	ls.ends = append(ls.ends, len(ls.buf))
	return true
}

// Len reports how many lines ls holds.
func (ls *Lines) Len() int { return len(ls.ends) }

// LineWriter is the one event writer: it writes event lines (LineAppender)
// to an underlying writer in blocks, exposing the flush boundary: after
// Flush, every event written has fully reached the underlying writer.
// SaveFile and the scenario engine's file sinks are built on it; a
// journaled sink aligns durable checkpoints (byte cursor ↔ event count)
// with event boundaries through it.
//
// Lines go to one block buffer, rendered there by Write or copied there
// by WriteLines. The underlying writer receives whole lines only, in
// blocks of about lineBlock bytes; the first failed block write sticks,
// as a bufio.Writer's does, and nothing of a failed block is sent again.
type LineWriter struct {
	la  *LineAppender
	w   io.Writer
	buf []byte
	err error // first failed block write
	n   int
}

// NewLineWriter builds an event writer for format "jsonl" or "csv". For
// csv, header selects whether the column header is emitted first — a
// resumed file already has one on disk; jsonl ignores it.
func NewLineWriter(w io.Writer, format string, header bool) (*LineWriter, error) {
	la, err := newLineAppender(format)
	if err != nil {
		return nil, err
	}
	lw := &LineWriter{la: la, w: w, buf: make([]byte, 0, lineBlock+512)}
	if la.csv && header {
		lw.buf = append(lw.buf, csvHeader+"\n"...)
	}
	return lw, nil
}

// Write encodes one event of the UE whose rendered id is id. An event that
// cannot be encoded (a NaN or infinite time in jsonl) is reported and
// leaves no bytes behind.
func (lw *LineWriter) Write(t float64, id []byte, dev events.DeviceType, typ events.Type) error {
	if lw.err != nil {
		return lw.writeErr(lw.err)
	}
	b, err := lw.la.appendLine(lw.buf, t, id, dev, typ)
	if err != nil {
		return lw.writeErr(err)
	}
	lw.buf = b
	lw.n++
	if len(lw.buf) >= lineBlock {
		if err := lw.Flush(); err != nil {
			return lw.writeErr(err)
		}
	}
	return nil
}

// WriteLines writes ls's lines, rendered by a LineAppender of this
// writer's format, exactly as Write would have written their events one
// by one: the same blocks reach the underlying writer, and the same error
// comes back — a block write's, at the line that completes the block (the
// lines after it are dropped), or else the one that ended ls, numbered as
// the event after its last line.
func (lw *LineWriter) WriteLines(ls *Lines) error {
	if lw.err != nil && (ls.Len() > 0 || ls.err != nil) {
		return lw.writeErr(lw.err)
	}
	from := 0 // the start of the first line not yet in the block buffer
	for i := 0; i < len(ls.ends); {
		// Lines i..j-1 leave the block short of lineBlock; line j (if
		// any) completes it. Between calls the buffer is always short.
		need := lineBlock - len(lw.buf)
		j := i
		for j < len(ls.ends) && ls.ends[j]-from < need {
			j++
		}
		if j == len(ls.ends) {
			lw.buf = append(lw.buf, ls.buf[from:]...)
			lw.n += j - i
			break
		}
		lw.buf = append(lw.buf, ls.buf[from:ls.ends[j]]...)
		lw.n += j - i + 1
		from, i = ls.ends[j], j+1
		if err := lw.Flush(); err != nil {
			return lw.writeErr(err)
		}
	}
	if ls.err != nil {
		return lw.writeErr(ls.err)
	}
	return nil
}

// Appender returns the line rules lw renders with, for rendering the Lines
// it is to write.
func (lw *LineWriter) Appender() *LineAppender { return lw.la }

func (lw *LineWriter) writeErr(err error) error {
	if lw.la.csv {
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
