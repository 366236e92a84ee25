package scenario

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/mcn"
	"cptgpt/internal/replaynet"
	"cptgpt/internal/trace"
	"cptgpt/internal/tracez"
)

// Summary aggregates a drained scenario stream in O(1) memory.
type Summary struct {
	// Events is the total emitted event count; ByType breaks it down.
	Events int
	ByType [events.NumTypes]int
	// FirstTime/LastTime bound the emitted timestamps.
	FirstTime float64
	LastTime  float64
	// PeakRate is the highest event rate (events/s) over any aligned
	// 60-second window; PeakWindowStart is that window's start.
	PeakRate        float64
	PeakWindowStart float64
}

// summaryWindow is the rate-metering window width for Summary.PeakRate.
const summaryWindow = 60.0

// Drain consumes the source to exhaustion, returning its summary — the
// "count" sink. It is also the cheapest way to force a full scenario run.
func Drain(st EventSource) (Summary, error) {
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	var sum Summary
	defer func() { sp.End(int64(sum.Events), sinkCount) }()
	var winStart float64
	winCount := 0
	first := true
	flush := func() {
		if rate := float64(winCount) / summaryWindow; rate > sum.PeakRate {
			sum.PeakRate = rate
			sum.PeakWindowStart = winStart
		}
	}
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		if first {
			sum.FirstTime = e.Time
			winStart = float64(int(e.Time/summaryWindow)) * summaryWindow
			first = false
		}
		for e.Time >= winStart+summaryWindow {
			flush()
			winStart += summaryWindow
			winCount = 0
		}
		winCount++
		sum.Events++
		if e.Type.Valid() {
			sum.ByType[e.Type]++
		}
		sum.LastTime = e.Time
	}
	if !first {
		flush()
	}
	return sum, st.Err()
}

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

// LineWriter encodes scenario events one at a time in the jsonl or csv
// interchange format, exposing the encoder's flush boundary: after Flush,
// every event passed to Write has fully reached the underlying writer.
// The jsonl and csv sinks are built on it (fileSink), whose journaled runs
// must align durable checkpoints (sink byte cursor ↔ event count) with
// event boundaries.
//
// The bytes are those of json.Encoder.Encode on {"t", "ue_id",
// "device_type", "event_type"} and of csv.Writer.Write on (ue_id,
// device_type, timestamp, event_type) — FuzzLineWriter holds them to it.
// Lines are appended field by field to one block buffer: times by
// appendTime under the rules quoted at appendJSONFloat, the device and event
// type names escaped once per value by the standard encoders, and a UE id
// that is not plainASCII re-encoded by them, so no escaping rule lives
// here. The underlying writer receives whole lines only, in blocks of
// about lineBlock bytes; the first failed block write sticks, as a
// bufio.Writer's does, and nothing of a failed block is sent again.
type LineWriter struct {
	w        io.Writer
	csv      bool
	appendID func([]byte, Event) []byte
	buf      []byte
	err      error // first failed block write
	n        int

	// Per-value line fragments, delimiters included: for jsonl
	// `,"device_type":"phone"` and `,"event_type":"ATCH"}` + newline, for
	// csv `,phone,` and `,ATCH` + newline.
	dev [events.NumDeviceTypes][]byte
	typ [events.NumTypes][]byte
}

// NewLineWriter builds a per-event encoder for format "jsonl" or "csv",
// rendering UE identifiers through src (by AppendUEID where src has it,
// see UEIDAppender). For CSV, header selects whether the column header is
// emitted first — a resumed sink already has one on disk; jsonl ignores it.
func NewLineWriter(w io.Writer, format string, src EventSource, header bool) (*LineWriter, error) {
	if format != sinkJSONL && format != sinkCSV {
		return nil, fmt.Errorf("scenario: unknown line format %q (want jsonl or csv)", format)
	}
	lw := &LineWriter{w: w, csv: format == sinkCSV, appendID: UEIDAppender(src), buf: make([]byte, 0, lineBlock+512)}
	if lw.csv && header {
		lw.buf = append(lw.buf, "ue_id,device_type,timestamp,event_type\n"...)
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

// Write encodes one event. An event that cannot be encoded (a NaN or
// infinite time in jsonl) is reported and leaves no bytes behind.
func (lw *LineWriter) Write(e Event) error {
	if lw.err != nil {
		return lw.writeErr(lw.err)
	}
	b := lw.buf
	if lw.csv {
		at := len(b)
		b = lw.appendID(b, e)
		if !plainASCII(b[at:]) {
			b = append(b[:at], csvField(string(b[at:]))...)
		}
		b = append(b, lw.deviceOf(e.Device)...)
		b = appendTime(b, e.Time)
	} else {
		var err error
		if b, err = appendJSONFloat(append(b, `{"t":`...), e.Time); err != nil {
			return lw.writeErr(err)
		}
		b = append(b, `,"ue_id":"`...)
		at := len(b)
		b = lw.appendID(b, e)
		if plainASCII(b[at:]) {
			b = append(b, '"')
		} else {
			b = append(b[:at-1], jsonString(string(b[at:]))...)
		}
		b = append(b, lw.deviceOf(e.Device)...)
	}
	lw.buf = append(b, lw.typeOf(e.Type)...)
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
		return fmt.Errorf("scenario: writing CSV row %d: %w", lw.n, err)
	}
	return fmt.Errorf("scenario: writing event %d: %w", lw.n, err)
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

// arrivals presents an EventSource as the consumers' trace.ArrivalSource.
type arrivals struct{ st EventSource }

func (a arrivals) NextArrival() (trace.Arrival, bool, error) {
	e, ok := a.st.Next()
	if !ok {
		return trace.Arrival{}, false, a.st.Err()
	}
	return trace.Arrival{Time: e.Time, UE: e.UE, Type: e.Type}, true, nil
}

// OnIdle forwards a paced source's idle hook (Pacer.OnIdle) to the consumer.
func (a arrivals) OnIdle(fn func(until time.Time)) {
	if p, ok := a.st.(interface{ OnIdle(func(time.Time)) }); ok {
		p.OnIdle(fn)
	}
}

// RunMCN drains the source through the simulated mobile-core control-plane
// function — the scenario engine's flagship sink. Memory stays bounded by
// the MCN's per-UE state, never by the event count.
func RunMCN(st EventSource, cfg mcn.Config) (*mcn.Report, error) {
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	rep, err := mcn.RunStream(st.Generation(), arrivals{st}, cfg)
	if rep != nil {
		sp.End(int64(rep.Events), sinkMCN)
	} else {
		sp.End(0, sinkMCN)
	}
	return rep, err
}

// ReplaySLOSearch drives the stream against a replaynet server with the
// closed-loop SLO-search controller, ramping the offered event rate to find
// the maximum sustained load whose p99 transaction latency meets the SLO.
func ReplaySLOSearch(addr string, st EventSource, opts replaynet.ClosedOpts, search replaynet.SearchOpts) (replaynet.SearchResult, error) {
	return replaynet.SLOSearch(addr, st.Generation(), arrivals{st}, opts, search)
}
