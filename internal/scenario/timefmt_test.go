package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/trace"
)

// timeLine writes one event at a time through a trace.LineWriter, the file
// sinks' encoder, and cuts out the line's time field; its buffers are
// reused, so millions of values check in seconds.
type timeLine struct {
	t          testing.TB
	buf        bytes.Buffer
	lw         *trace.LineWriter
	head, tail int // bytes before and after the time field
	want       []byte
}

func newTimeLine(t testing.TB, format string) *timeLine {
	tl := &timeLine{t: t, head: len("u,phone,"), tail: len(",ATCH\n")}
	if format == "jsonl" {
		tl.head, tl.tail = len(`{"t":`), len(`,"ue_id":"u","device_type":"phone","event_type":"ATCH"}`+"\n")
	}
	var err error
	if tl.lw, err = trace.NewLineWriter(&tl.buf, format, false); err != nil {
		t.Fatal(err)
	}
	return tl
}

// time returns the time field of the line written for time f, or the
// writer's refusal.
func (tl *timeLine) time(f float64) ([]byte, error) {
	tl.buf.Reset()
	if err := tl.lw.Write(f, []byte("u"), events.Phone, events.Attach); err != nil {
		return nil, err
	}
	if err := tl.lw.Flush(); err != nil {
		tl.t.Fatal(err)
	}
	b := tl.buf.Bytes()
	return b[tl.head : len(b)-tl.tail], nil
}

// checkStrconv fails the test unless a csv line's time field is f as
// strconv's 'f' format at shortest precision writes it.
func (tl *timeLine) checkStrconv(f float64) {
	got, err := tl.time(f)
	tl.want = strconv.AppendFloat(tl.want[:0], f, 'f', -1, 64)
	if err != nil || !bytes.Equal(got, tl.want) {
		tl.t.Helper()
		tl.t.Fatalf("time %v [%#016x] written as %q (%v), strconv writes %q", f, math.Float64bits(f), got, err, tl.want)
	}
}

// checkJSON fails the test unless a jsonl line's time field is f as
// json.Marshal writes it, or the event is refused with json's own error.
func (tl *timeLine) checkJSON(f float64) {
	tl.t.Helper()
	want, wantErr := json.Marshal(f)
	got, gotErr := tl.time(f)
	if wantErr != nil {
		var ue *json.UnsupportedValueError
		if !errors.As(gotErr, &ue) || ue.Error() != wantErr.Error() || tl.buf.Len() != 0 {
			tl.t.Fatalf("%v: got %q, %v; json says %v", f, tl.buf.Bytes(), gotErr, wantErr)
		}
		return
	}
	if gotErr != nil || !bytes.Equal(got, want) {
		tl.t.Fatalf("%v: got %q, %v; json writes %q", f, got, gotErr, want)
	}
}

// The timestamp kernel (trace.appendTime) covers positive normal values
// c·2^q, c in [2^52, 2^53), for q in [kernelMinQ, kernelMaxQ]; strconv
// writes the rest.
const kernelMinQ, kernelMaxQ = -99, 36

// TestAppendTimeMatchesStrconv holds the csv sink's timestamps, which the
// timestamp kernel writes, to strconv byte for byte: every binade of the
// kernel's range (and one past either end) at its
// first and last significand and one ulp either side of both, the first
// significand being the asymmetric interval; exact integers up to 2^53;
// short decimals k/1000; and 10 M seeded random values, most of them inside
// the kernel's range.
func TestAppendTimeMatchesStrconv(t *testing.T) {
	checkAppendTime := newTimeLine(t, "csv").checkStrconv
	for q := kernelMinQ - 1; q <= kernelMaxQ+1; q++ {
		for _, c := range []uint64{1 << 52, 1<<53 - 1} {
			f := math.Ldexp(float64(c), q)
			checkAppendTime(f)
			checkAppendTime(math.Nextafter(f, 0))
			checkAppendTime(math.Nextafter(f, math.Inf(1)))
		}
	}
	for n := 0; n <= 1<<20; n++ {
		checkAppendTime(float64(n))
	}
	for e := 20; e <= 53; e++ {
		for d := uint64(0); d < 64; d++ {
			checkAppendTime(float64(uint64(1)<<e - d))
			checkAppendTime(float64(uint64(1)<<(e-1) + d))
		}
	}
	for n := 0; n < 3_600_000; n++ {
		checkAppendTime(float64(n) / 1000)
	}
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 10_000_000; i++ {
		var f float64
		switch i % 4 {
		case 0: // any significand at any exponent of the kernel's range
			q := kernelMinQ + rng.Intn(kernelMaxQ-kernelMinQ+1)
			f = math.Ldexp(float64(1<<52|rng.Uint64()&(1<<52-1)), q)
		case 1: // a timestamp within a day
			f = rng.Float64() * 86400
		case 2: // an integer below 2^53
			f = float64(rng.Uint64() >> 11)
		default: // any bit pattern: the fallbacks
			f = math.Float64frombits(rng.Uint64())
		}
		checkAppendTime(f)
	}
	for _, f := range edgeTimes {
		checkAppendTime(f)
	}
}

// FuzzAppendTime: for any float64 bit pattern, the csv sink's time field is
// strconv's 'f' shortest bytes and the jsonl sink's is json.Marshal's (or
// the event is refused as json refuses the value).
func FuzzAppendTime(f *testing.F) {
	for _, tm := range edgeTimes {
		f.Add(math.Float64bits(tm))
	}
	for _, q := range []int{kernelMinQ - 1, kernelMinQ, -70, -20, 0, 16, kernelMaxQ, kernelMaxQ + 1} {
		f.Add(math.Float64bits(math.Ldexp(1<<52, q)))
		f.Add(math.Float64bits(math.Ldexp(1<<53-1, q)))
	}
	f.Fuzz(func(t *testing.T, fb uint64) {
		v := math.Float64frombits(fb)
		newTimeLine(t, "csv").checkStrconv(v)
		newTimeLine(t, "jsonl").checkJSON(v)
	})
}
