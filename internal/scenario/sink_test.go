package scenario

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/trace"
)

// The encoders trace.LineWriter replaced, kept as the reference the file
// sinks' bytes are held to: encoding/json over a boxed line struct,
// encoding/csv over a string row, and fmt for the UE id.

type eventLine struct {
	Time   float64 `json:"t"`
	UEID   string  `json:"ue_id"`
	Device string  `json:"device_type"`
	Type   string  `json:"event_type"`
}

func sprintfUEID(st *Stream, e Event) string {
	src := int(e.UE >> ueKeyBits)
	idx := e.UE & (1<<ueKeyBits - 1)
	if src < len(st.srcIDs) {
		return fmt.Sprintf("%s-%07d", st.srcIDs[src], idx)
	}
	return fmt.Sprintf("ue-%d", e.UE)
}

// referenceLines is the old writeLines body. An event json refuses is
// skipped, as the old LineWriter left nothing of it behind; the first
// refusal is returned beside the bytes.
func referenceLines(format string, header bool, ueid func(Event) string, evs []Event) ([]byte, error) {
	var buf bytes.Buffer
	var first error
	if format == "jsonl" {
		enc := json.NewEncoder(&buf)
		for _, e := range evs {
			err := enc.Encode(eventLine{Time: e.Time, UEID: ueid(e), Device: e.Device.String(), Type: e.Type.String()})
			if err != nil && first == nil {
				first = err
			}
		}
		return buf.Bytes(), first
	}
	cw := csv.NewWriter(&buf)
	if header {
		cw.Write([]string{"ue_id", "device_type", "timestamp", "event_type"})
	}
	for _, e := range evs {
		cw.Write([]string{ueid(e), e.Device.String(), strconv.FormatFloat(e.Time, 'f', -1, 64), e.Type.String()})
	}
	cw.Flush()
	return buf.Bytes(), cw.Error()
}

// idSource renders UE ids from a table (the key itself where the table
// has none) and has no AppendUEID, so eventWriter takes them through the
// string fallback.
type idSource struct {
	sliceSource
	ids map[uint64]string
}

func (s *idSource) UEID(e Event) string {
	if id, ok := s.ids[e.UE]; ok {
		return id
	}
	return strconv.FormatUint(e.UE, 10)
}

// stringOnly hides a stream's AppendUEID.
type stringOnly struct{ EventSource }

// eventWriter is the serial reference for the file sink's encoders: it
// renders each event's UE id through the source (UEIDAppender) and writes
// its line with trace.LineWriter.Write, one event at a time on the
// caller's goroutine.
type eventWriter struct {
	lw       *trace.LineWriter
	appendID func(dst []byte, e Event) []byte
	id       []byte
}

// newEventWriter writes format "jsonl" or "csv" to w, with the csv column
// header first when header is set.
func newEventWriter(w io.Writer, format string, src EventSource, header bool) (*eventWriter, error) {
	lw, err := trace.NewLineWriter(w, format, header)
	if err != nil {
		return nil, err
	}
	return &eventWriter{lw: lw, appendID: UEIDAppender(src)}, nil
}

func (ew *eventWriter) write(e Event) error {
	ew.id = ew.appendID(ew.id[:0], e)
	return ew.lw.Write(e.Time, ew.id, e.Device, e.Type)
}

// encodeAll writes evs through an eventWriter and returns what reached w,
// with the first Write error (encoding continues past it, as a caller
// that skipped the event would).
func encodeAll(t testing.TB, format string, header bool, src EventSource, evs []Event) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	ew, err := newEventWriter(&buf, format, src, header)
	if err != nil {
		t.Fatal(err)
	}
	lw := ew.lw
	var first error
	ok := 0
	for _, e := range evs {
		if err := ew.write(e); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		ok++
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	if lw.Count() != ok {
		t.Fatalf("Count %d after %d accepted events", lw.Count(), ok)
	}
	return buf.Bytes(), first
}

// checkAgainstReference holds both formats, with and without header, to
// the reference encoders on evs.
func checkAgainstReference(t *testing.T, src EventSource, ueid func(Event) string, evs []Event) {
	t.Helper()
	for _, format := range []string{"jsonl", "csv"} {
		for _, header := range []bool{true, false} {
			want, wantErr := referenceLines(format, header, ueid, evs)
			got, gotErr := encodeAll(t, format, header, src, evs)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s header=%v: bytes differ from the reference encoder\n got %q\nwant %q", format, header, clip(got), clip(want))
			}
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: error %v, reference %v", format, gotErr, wantErr)
			}
			if wantErr != nil {
				var gu, wu *json.UnsupportedValueError
				if !errors.As(gotErr, &gu) || !errors.As(wantErr, &wu) || gu.Error() != wu.Error() {
					t.Fatalf("%s: error %v, reference %v", format, gotErr, wantErr)
				}
			}
		}
	}
}

func clip(b []byte) []byte {
	if len(b) > 400 {
		return b[len(b)-400:]
	}
	return b
}

var hostileIDs = []string{
	"", "synthetic", " lead", "trail ", "in side", `q"uote`, `back\slash`, `\.`, "a,b", "cr\rlf\n", "\n",
	"tab\there", "\x00\x01\x1f", "del\x7f", "<script>&amp;", "sep\u2028\u2029", "café", "日本",
	"bad\xff\xfeutf8", "\xc3", "\u00a0nbsp-lead", "\u0085nel-lead", "\u3000wide-lead",
}

var edgeTimes = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
	math.Nextafter(1e-6, 0), 1e-6, math.Nextafter(1e-6, 1), -1e-6, math.Nextafter(-1e-6, 0),
	math.Nextafter(1e21, 0), 1e21, math.Nextafter(1e21, math.Inf(1)), -1e21,
	1e-7, 1.5e-9, 1e-10, 1.25e-99, 1e-100, 1e22, 1e99, 1e100, math.MaxFloat64, -math.MaxFloat64,
	0.1, 1234.000001, 3599.9999999999995, 1 << 53, 100, 123456789.125,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// FuzzLineWriter: whatever the time, the source id, the UE key and the
// device and type values, the file sinks' bytes equal the reference encoders'
// — for both formats, with and without the csv header, by AppendUEID and
// by the UEID string fallback — and a time json refuses is the same error
// and leaves no bytes. pad filler events in front move the event across
// the block limit.
func FuzzLineWriter(f *testing.F) {
	for i, id := range hostileIDs {
		f.Add(math.Float64bits(edgeTimes[i%len(edgeTimes)]), id, uint64(i), i%3, i%5, uint16(0))
	}
	for i, tm := range edgeTimes {
		f.Add(math.Float64bits(tm), "synthetic", ueKey(i%3, i), i%3, i%5, uint16(i))
	}
	for _, idx := range []uint64{0, 9, 10, 999_999, 1_000_000, 9_999_999, 10_000_000, 123_456_789_012, 1<<ueKeyBits - 1} {
		f.Add(math.Float64bits(12.5), "gpt", idx, 1, 2, uint16(0))
	}
	for _, ue := range []uint64{ueKey(2, 3), ueKey(7, 0), ueKey(1<<20, 12345), math.MaxUint64} {
		f.Add(math.Float64bits(7), "only", ue, 0, 0, uint16(0)) // no such source: "ue-%d"
	}
	for _, v := range []int{-1, events.NumDeviceTypes, events.NumTypes, 1 << 40, math.MinInt} {
		f.Add(math.Float64bits(1), "s", uint64(5), v, v, uint16(3))
	}
	f.Add(math.Float64bits(3e-7), `mixed "id", <all>\at once`+"\r\n", ueKey(1, 77), -3, 99, uint16(700))

	f.Fuzz(func(t *testing.T, timeBits uint64, srcID string, ue uint64, device, typ int, pad uint16) {
		st := &Stream{srcIDs: []string{srcID, "second"}}
		evs := make([]Event, 0, int(pad%1024)+3)
		for i := 0; i < int(pad%1024); i++ {
			evs = append(evs, Event{Time: float64(i) / 8, UE: ueKey(1, i), Device: events.DeviceType(i % 3), Type: events.Type(i % 5)})
		}
		evs = append(evs,
			Event{Time: math.Float64frombits(timeBits), UE: ue, Device: events.DeviceType(device), Type: events.Type(typ)},
			Event{Time: 1, UE: ue & (1<<ueKeyBits - 1), Device: events.Phone, Type: events.Type(typ)},
			Event{Time: 2, UE: ueKey(1, 0)})
		ueid := func(e Event) string { return sprintfUEID(st, e) }
		checkAgainstReference(t, st, ueid, evs)
		checkAgainstReference(t, stringOnly{st}, ueid, evs)
		for _, e := range evs {
			if got := st.UEID(e); got != ueid(e) {
				t.Fatalf("UEID(%#x) = %q, Sprintf form %q", e.UE, got, ueid(e))
			}
		}
	})
}

// TestLineWriterHostileIDs takes the ids verbatim, as a source outside this
// package may render them ("" and `\.` have rules of their own in csv).
func TestLineWriterHostileIDs(t *testing.T) {
	src := &idSource{ids: map[uint64]string{}}
	var evs []Event
	for i, id := range hostileIDs {
		src.ids[uint64(i)] = id
		evs = append(evs, Event{Time: edgeTimes[i%12], UE: uint64(i), Device: events.DeviceType(i % 3), Type: events.Type(i % 5)})
	}
	checkAgainstReference(t, src, src.UEID, evs)
}

// TestJSONFloatRule walks every decimal exponent a float64 has, every power
// of two from 2^-30 to 2^70 (past both ends of json's 'f' range) with its
// neighbours, and random bit patterns, through the jsonl sink's "t" field
// against encoding/json itself.
func TestJSONFloatRule(t *testing.T) {
	check := newTimeLine(t, "jsonl").checkJSON
	for exp := -324; exp <= 308; exp++ {
		for _, mant := range []string{"1", "9.999999999999999", "1.0000000000000002", "-4.25"} {
			f, err := strconv.ParseFloat(mant+"e"+strconv.Itoa(exp), 64)
			if err != nil && !errors.Is(err, strconv.ErrRange) {
				t.Fatal(err)
			}
			check(f)
		}
	}
	for e := -30; e <= 70; e++ {
		p := math.Ldexp(1, e)
		check(math.Nextafter(p, 0))
		check(p)
		check(math.Nextafter(p, math.Inf(1)))
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 50_000; i++ {
		check(math.Float64frombits(rng.Uint64()))
	}
}

// TestStreamUEID holds AppendUEID (and so UEID) to the Sprintf forms it
// replaced over random (source, index) pairs, past seven digits too.
func TestStreamUEID(t *testing.T) {
	st := &Stream{srcIDs: []string{"synthetic", "", "gpt-4g", `we"ird`}}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20_000; i++ {
		idx := rng.Uint64() >> uint(24+rng.Intn(40)) // every digit count up to 13
		e := Event{UE: uint64(rng.Intn(6))<<ueKeyBits | idx}
		if i%97 == 0 {
			e.UE = rng.Uint64()
		}
		want := sprintfUEID(st, e)
		if got := st.UEID(e); got != want {
			t.Fatalf("UEID(%#x) = %q, want %q", e.UE, got, want)
		}
		if got := string(st.AppendUEID([]byte("keep"), e)); got != "keep"+want {
			t.Fatalf("AppendUEID(%#x) = %q, want %q", e.UE, got, "keep"+want)
		}
	}
}

// writeLog records every Write it is handed and can fail one of them.
type writeLog struct {
	writes [][]byte
	failAt int // 1-based call that fails; 0 = never
	accept int // bytes the failing call takes before failing
	err    error
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	if len(w.writes) == w.failAt {
		return min(w.accept, len(p)), w.err
	}
	return len(p), nil
}

// lineBlock is the block size trace.LineWriter hands its writer lines in.
const lineBlock = 64 << 10

// TestLineWriterBlocks pins the block rule on lines that end one byte
// before, exactly at and one byte past the block limit: the underlying
// writer only ever sees whole lines, a block goes out with the line that
// reaches the limit, and the bytes are the reference's.
func TestLineWriterBlocks(t *testing.T) {
	for _, format := range []string{"jsonl", "csv"} {
		for _, delta := range []int{-1, 0, 1} {
			src := &idSource{ids: map[uint64]string{0: "filler-0000001"}}
			filler := Event{Time: 12.5, UE: 0, Device: events.Phone}
			one, _ := referenceLines(format, false, src.UEID, []Event{filler})
			fill := len(one)
			head, _ := referenceLines(format, true, src.UEID, nil)
			var evs []Event
			size := len(head)
			for size+3*fill < lineBlock {
				evs = append(evs, filler)
				size += fill
			}
			// One line with a stretched id lands the block on lineBlock+delta.
			src.ids[1] = strings.Repeat("x", lineBlock+delta-size-fill+len(src.ids[0]))
			evs = append(evs, Event{Time: 12.5, UE: 1, Device: events.Phone}, filler, filler, filler)

			var log writeLog
			ew, err := newEventWriter(&log, format, src, true)
			if err != nil {
				t.Fatal(err)
			}
			lw := ew.lw
			for _, e := range evs {
				if err := ew.write(e); err != nil {
					t.Fatal(err)
				}
			}
			if len(log.writes) != 1 {
				t.Fatalf("%s Δ%d: %d block writes before Flush, want 1", format, delta, len(log.writes))
			}
			wantFirst := lineBlock + delta
			if delta < 0 {
				wantFirst += fill // the limit was not reached: one more line fits
			}
			if len(log.writes[0]) != wantFirst {
				t.Fatalf("%s Δ%d: first block %d bytes, want %d", format, delta, len(log.writes[0]), wantFirst)
			}
			if err := lw.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := lw.Flush(); err != nil || len(log.writes) != 2 {
				t.Fatalf("%s Δ%d: second Flush wrote again (%d writes, err %v)", format, delta, len(log.writes), err)
			}
			for i, w := range log.writes {
				if w[len(w)-1] != '\n' {
					t.Fatalf("%s Δ%d: block %d does not end on a line boundary", format, delta, i)
				}
			}
			want, _ := referenceLines(format, true, src.UEID, evs)
			if got := bytes.Join(log.writes, nil); !bytes.Equal(got, want) {
				t.Fatalf("%s Δ%d: bytes differ from the reference encoder (%d vs %d)", format, delta, len(got), len(want))
			}
		}
	}
}

// TestLineWriterWriteErrors: the Write that completes the failing block
// and every later Write and Flush report the writer's error; the writer is
// not called again, so nothing of the failed block is re-sent; a write
// that comes back short without an error is io.ErrShortWrite.
func TestLineWriterWriteErrors(t *testing.T) {
	boom := errors.New("boom")
	st := &Stream{srcIDs: []string{"synthetic"}}
	for _, tc := range []struct {
		name   string
		failAt int
		accept int
		err    error
		want   error
	}{
		{"first block", 1, 0, boom, boom},
		{"third block, partly taken", 3, 1000, boom, boom},
		{"short write", 2, lineBlock / 2, nil, io.ErrShortWrite},
	} {
		for _, format := range []string{"jsonl", "csv"} {
			log := &writeLog{failAt: tc.failAt, accept: tc.accept, err: tc.err}
			ew, err := newEventWriter(log, format, st, true)
			if err != nil {
				t.Fatal(err)
			}
			lw := ew.lw
			var failed error
			n := 0
			for ; failed == nil && n < 10_000; n++ {
				failed = ew.write(Event{Time: float64(n), UE: uint64(n), Type: events.Type(n % 5)})
			}
			if !errors.Is(failed, tc.want) || len(log.writes) != tc.failAt {
				t.Fatalf("%s %s: Write error %v after %d block writes, want %v at block %d", tc.name, format, failed, len(log.writes), tc.want, tc.failAt)
			}
			perBlock := n / tc.failAt
			if perBlock < 500 {
				t.Fatalf("%s %s: failed after %d events, too early for block %d", tc.name, format, n, tc.failAt)
			}
			for i := 0; i < 2*perBlock; i++ {
				if err := ew.write(Event{Time: 1}); !errors.Is(err, tc.want) {
					t.Fatalf("%s %s: Write after the failure returned %v", tc.name, format, err)
				}
			}
			if err := lw.Flush(); !errors.Is(err, tc.want) {
				t.Fatalf("%s %s: Flush after the failure returned %v", tc.name, format, err)
			}
			if len(log.writes) != tc.failAt {
				t.Fatalf("%s %s: writer called %d times, want none after failing call %d", tc.name, format, len(log.writes), tc.failAt)
			}
		}
	}

	// An unknown format is still refused at construction.
	if _, err := newEventWriter(io.Discard, "xml", st, true); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// benchEvents is a time-ordered slice shaped like a synthetic scenario's
// output: 2 sources × 5000 UEs.
func benchEvents(n int) (*Stream, []Event) {
	st := &Stream{srcIDs: []string{"synthetic", "gpt"}}
	rng := rand.New(rand.NewSource(3))
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{Time: 3600 * float64(i) / float64(n), UE: ueKey(rng.Intn(2), rng.Intn(5000)),
			Device: events.DeviceType(rng.Intn(3)), Type: events.Type(rng.Intn(5))}
	}
	return st, evs
}

// TestLineWriterZeroAllocs: encoding an event allocates nothing, in either
// format, block writes included — one at a time through Write, and a batch
// at a time as the file sink does it, rendered into reused Lines and
// handed over by WriteLines.
func TestLineWriterZeroAllocs(t *testing.T) {
	st, evs := benchEvents(4096)
	for _, format := range []string{"jsonl", "csv"} {
		ew, err := newEventWriter(io.Discard, format, st, true)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		allocs := testing.AllocsPerRun(20_000, func() {
			if err := ew.write(evs[i%len(evs)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocations per event, want 0", format, allocs)
		}

		lw := ew.lw
		var ls trace.Lines
		var id []byte
		lo := 0
		allocs = testing.AllocsPerRun(200, func() {
			ls.Reset()
			for _, e := range evs[lo : lo+sinkBatch] {
				id = st.AppendUEID(id[:0], e)
				ls.Append(lw.Appender(), e.Time, id, e.Device, e.Type)
			}
			if err := lw.WriteLines(&ls); err != nil {
				t.Fatal(err)
			}
			lo = (lo + sinkBatch) % (len(evs) - sinkBatch)
		})
		if allocs != 0 {
			t.Fatalf("%s: %v allocations per batch of rendered lines, want 0", format, allocs)
		}
	}
}

// drainWalk is Drain's window metering as it was before Drain skipped empty
// windows: it steps through every 60 s window from the first event's to the
// last, metering each. Kept as the reference Drain's Summary is held to.
func drainWalk(evs []Event) Summary {
	var sum Summary
	var winStart float64
	winCount := 0
	flush := func() {
		if rate := float64(winCount) / summaryWindow; rate > sum.PeakRate {
			sum.PeakRate = rate
			sum.PeakWindowStart = winStart
		}
	}
	for i, e := range evs {
		if i == 0 {
			sum.FirstTime = e.Time
			winStart = float64(int(e.Time/summaryWindow)) * summaryWindow
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
	if len(evs) > 0 {
		flush()
	}
	return sum
}

// TestDrainMatchesWindowWalk holds Drain's Summary, field for field, to the
// window walk on random ordered streams: gaps from none up to 1e6 s (16,667
// empty windows), times on a window edge k·60 and one ulp below it, invalid
// event types, and single-event and empty streams.
func TestDrainMatchesWindowWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for seq := 0; seq < 3000; seq++ {
		n := rng.Intn(40)
		switch seq {
		case 0:
			n = 0
		case 1, 2:
			n = 1
		}
		evs := make([]Event, 0, n)
		at := rng.Float64() * 1e4
		for i := 0; i < n; i++ {
			switch rng.Intn(8) {
			case 0:
				at += rng.Float64() * 1e6
			case 1:
				// unchanged: a burst at one instant
			case 2: // the next window edge
				at = (math.Floor(at/summaryWindow) + 1) * summaryWindow
			case 3: // one ulp below a later window edge
				if edge := (math.Floor(at/summaryWindow) + 1 + float64(rng.Intn(3))) * summaryWindow; math.Nextafter(edge, 0) > at {
					at = math.Nextafter(edge, 0)
				}
			default:
				at += rng.Float64() * 120
			}
			evs = append(evs, Event{Time: at, UE: uint64(i), Type: events.Type(rng.Intn(events.NumTypes + 1))})
		}
		got, err := Drain(&sliceSource{evs: evs})
		if err != nil {
			t.Fatal(err)
		}
		if want := drainWalk(evs); got != want {
			t.Fatalf("sequence %d (%d events): Drain %+v, window walk %+v", seq, n, got, want)
		}
	}
}

// TestDrainFarApart drains two events 1e15 s apart — 1.7e13 empty windows
// between them, which a window walk would step through — and a third in the
// second one's window, whose start must be the exact multiple of 60 below.
func TestDrainFarApart(t *testing.T) {
	evs := []Event{{Time: 0}, {Time: 1e15}, {Time: 1e15 + 10}}
	got, err := Drain(&sliceSource{evs: evs})
	if err != nil {
		t.Fatal(err)
	}
	want := Summary{Events: 3, FirstTime: 0, LastTime: 1e15 + 10, PeakRate: 2 / summaryWindow, PeakWindowStart: 999999999999960}
	want.ByType[0] = 3
	if got != want {
		t.Fatalf("Drain %+v, want %+v", got, want)
	}
}
