package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// timeChecker fails t unless appendTime writes a value as strconv's 'f'
// format at shortest precision does, after a prefix it must keep. Its
// buffers are reused, so millions of values check in seconds.
type timeChecker struct {
	t         *testing.T
	got, want []byte
}

func (c *timeChecker) check(f float64) {
	c.got = appendTime(append(c.got[:0], 'x'), f)
	c.want = strconv.AppendFloat(append(c.want[:0], 'x'), f, 'f', -1, 64)
	if !bytes.Equal(c.got, c.want) {
		c.t.Helper()
		c.t.Fatalf("appendTime(%v) [%#016x] = %q, strconv writes %q", f, math.Float64bits(f), c.got[1:], c.want[1:])
	}
}

// TestAppendTimeMatchesStrconv holds the timestamp kernel to strconv byte for
// byte: every binade of the kernel's range (and one past either end) at its
// first and last significand and one ulp either side of both, the first
// significand being the asymmetric interval; exact integers up to 2^53;
// short decimals k/1000; and 10 M seeded random values, most of them inside
// the kernel's range.
func TestAppendTimeMatchesStrconv(t *testing.T) {
	checkAppendTime := (&timeChecker{t: t}).check
	for q := minTimeQ - 1; q <= maxTimeQ+1; q++ {
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
			q := minTimeQ + rng.Intn(maxTimeQ-minTimeQ+1)
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

// FuzzAppendTime: for any float64 bit pattern, appendTime writes strconv's
// 'f' shortest bytes and appendJSONFloat writes json.Marshal's (or fails as
// it does).
func FuzzAppendTime(f *testing.F) {
	for _, tm := range edgeTimes {
		f.Add(math.Float64bits(tm))
	}
	for _, q := range []int{minTimeQ - 1, minTimeQ, -70, -20, 0, 16, maxTimeQ, maxTimeQ + 1} {
		f.Add(math.Float64bits(math.Ldexp(1<<52, q)))
		f.Add(math.Float64bits(math.Ldexp(1<<53-1, q)))
	}
	f.Fuzz(func(t *testing.T, fb uint64) {
		v := math.Float64frombits(fb)
		(&timeChecker{t: t}).check(v)
		want, wantErr := json.Marshal(v)
		got, gotErr := appendJSONFloat(nil, v)
		if (wantErr == nil) != (gotErr == nil) || wantErr == nil && string(got) != string(want) {
			t.Fatalf("appendJSONFloat(%v) = %q, %v; json.Marshal %q, %v", v, got, gotErr, want, wantErr)
		}
	})
}
