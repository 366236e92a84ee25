package synthetic

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/statemachine"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
)

func small4G(t *testing.T, seed uint64) Config {
	t.Helper()
	return Config{
		Generation: events.Gen4G,
		Seed:       seed,
		UEs: map[events.DeviceType]int{
			events.Phone:        60,
			events.ConnectedCar: 40,
			events.Tablet:       30,
		},
		Hours:     1,
		StartHour: 10,
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Generation: events.Gen4G, Hours: 0, UEs: map[events.DeviceType]int{events.Phone: 1}},
		{Generation: events.Gen4G, Hours: 1, StartHour: 25, UEs: map[events.DeviceType]int{events.Phone: 1}},
		{Generation: events.Gen4G, Hours: 1, UEs: map[events.DeviceType]int{events.Phone: -1}},
		{Generation: events.Gen4G, Hours: 1, UEs: map[events.DeviceType]int{}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// TestSemanticallyValid is the generator's core invariant: every stream it
// emits replays with zero violations against the hierarchical state machine.
func TestSemanticallyValid(t *testing.T) {
	for _, gen := range []events.Generation{events.Gen4G, events.Gen5G} {
		cfg := small4G(t, 7)
		cfg.Generation = gen
		d, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tl := statemachine.NewTally(statemachine.New(gen))
		for i := range d.Streams {
			s := &d.Streams[i]
			for j, e := range s.Events {
				if !tl.Observe(uint64(i), e.Type, e.Time) {
					t.Fatalf("%s stream %s violates at event %d (%v)", gen, s.UEID, j, e.Type)
				}
			}
		}
	}
}

func TestTimestampsOrderedAndBounded(t *testing.T) {
	cfg := small4G(t, 8)
	cfg.Hours = 2
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 3600.0 * 2
	for i := range d.Streams {
		last := math.Inf(-1)
		for _, e := range d.Streams[i].Events {
			if e.Time < last {
				t.Fatalf("stream %s timestamps decrease", d.Streams[i].UEID)
			}
			if e.Time < 0 || e.Time >= horizon {
				t.Fatalf("stream %s timestamp %v outside [0, %v)", d.Streams[i].UEID, e.Time, horizon)
			}
			last = e.Time
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	d1, err := Generate(small4G(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(small4G(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	if d1.NumStreams() != d2.NumStreams() || d1.NumEvents() != d2.NumEvents() {
		t.Fatal("same seed must give identical datasets")
	}
	for i := range d1.Streams {
		a, b := &d1.Streams[i], &d2.Streams[i]
		for j := range a.Events {
			if a.Events[j] != b.Events[j] {
				t.Fatal("same seed must give identical events")
			}
		}
	}
	d3, err := Generate(small4G(t, 43))
	if err != nil {
		t.Fatal(err)
	}
	if d3.NumEvents() == d1.NumEvents() {
		t.Log("different seeds gave equal event counts (possible but unlikely)")
	}
}

func TestDeviceMixBehaviour(t *testing.T) {
	cfg := Config{
		Generation: events.Gen4G,
		Seed:       5,
		UEs: map[events.DeviceType]int{
			events.Phone:        200,
			events.ConnectedCar: 200,
		},
		Hours:     1,
		StartHour: 12,
	}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hoShare := func(dev events.DeviceType) float64 {
		sub := d.FilterDevice(dev)
		var ho, total float64
		for i := range sub.Streams {
			for _, e := range sub.Streams[i].Events {
				total++
				if e.Type == events.Handover {
					ho++
				}
			}
		}
		return ho / total
	}
	phone, car := hoShare(events.Phone), hoShare(events.ConnectedCar)
	if car <= phone {
		t.Fatalf("connected cars must hand over more than phones: car %.3f vs phone %.3f", car, phone)
	}
}

func TestSRVandRELDominant(t *testing.T) {
	d, err := Generate(small4G(t, 9))
	if err != nil {
		t.Fatal(err)
	}
	shares, vocab := d.EventBreakdown()
	var srvRel float64
	for i, e := range vocab {
		if e == events.ServiceRequest || e == events.S1ConnRel {
			srvRel += shares[i]
		}
	}
	if srvRel < 0.6 {
		t.Fatalf("SRV_REQ+S1_CONN_REL share %.2f; the real trace has ≈0.9 (Table 7)", srvRel)
	}
}

func TestDiurnalDrift(t *testing.T) {
	// Generate across the morning ramp: hour starting 05:00 should be much
	// quieter than hour starting 12:00 for phones.
	cfg := Config{
		Generation: events.Gen4G,
		Seed:       11,
		UEs:        map[events.DeviceType]int{events.Phone: 300},
		Hours:      8,
		StartHour:  5,
	}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	early := d.SliceHour(0) // 05:00
	noon := d.SliceHour(7)  // 12:00
	if noon.NumEvents() <= early.NumEvents() {
		t.Fatalf("diurnal drift missing: noon %d events vs 5am %d", noon.NumEvents(), early.NumEvents())
	}
}

func TestUEHeterogeneity(t *testing.T) {
	cfg := small4G(t, 13)
	cfg.UEs = map[events.DeviceType]int{events.Phone: 300}
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lengths := d.FlowLengths(nil)
	var min, max float64 = math.Inf(1), math.Inf(-1)
	for _, l := range lengths {
		min = math.Min(min, l)
		max = math.Max(max, l)
	}
	// Latent activity mixtures should spread flow lengths widely.
	if max < 5*min || max < 20 {
		t.Fatalf("flow lengths too homogeneous: min %v max %v", min, max)
	}
}

func Test5GUsesOnly5GVocabulary(t *testing.T) {
	cfg := small4G(t, 17)
	cfg.Generation = events.Gen5G
	d, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.Streams {
		for _, e := range d.Streams[i].Events {
			if events.VocabIndex(events.Gen5G, e.Type) < 0 {
				t.Fatalf("5G trace contains %s", e.Type)
			}
		}
	}
}

// The worker-pool fan-out must not change a single bit of the output.
func TestParallelMatchesSerial(t *testing.T) {
	cfg := small4G(t, 9)
	prev := tensor.SetParallelism(1)
	serial, err := Generate(cfg)
	tensor.SetParallelism(prev)
	if err != nil {
		t.Fatal(err)
	}
	tensor.SetParallelism(4)
	defer tensor.SetParallelism(prev)
	par, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatal("parallel generation diverged from serial")
	}
}

// Chunked emission must concatenate to exactly the full run, regardless of
// chunk boundaries.
func TestGenerateRangeMatchesFull(t *testing.T) {
	cfg := small4G(t, 11)
	total := TotalUEs(cfg)
	if total != 130 {
		t.Fatalf("TotalUEs = %d, want 130", total)
	}
	full, err := GenerateRange(cfg, 0, total, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 64, total} {
		var got []trace.Stream
		for lo := 0; lo < total; lo += chunk {
			hi := lo + chunk
			if hi > total {
				hi = total
			}
			part, err := GenerateRange(cfg, lo, hi, 1)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, part...)
		}
		if !reflect.DeepEqual(got, full) {
			t.Fatalf("chunk size %d diverged from full run", chunk)
		}
	}
	if _, err := GenerateRange(cfg, 5, 3, 1); err == nil {
		t.Fatal("inverted range must error")
	}
	if _, err := GenerateRange(cfg, 0, total+1, 1); err == nil {
		t.Fatal("out-of-bounds range must error")
	}
}

// streamsDigest hashes a generated population: identities, devices, event
// types and the exact bits of every timestamp (smm's pinned-test shape).
func streamsDigest(streams []trace.Stream) string {
	h := sha256.New()
	var b [8]byte
	for i := range streams {
		s := &streams[i]
		fmt.Fprintf(h, "%s/%s/%d;", s.UEID, s.Device, len(s.Events))
		for _, e := range s.Events {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(e.Time))
			h.Write(b[:])
			fmt.Fprintf(h, "%s;", e.Type)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// TestGeneratePinned pins GenerateRange's exact output — 4G and 5G, two
// seeds, all three devices, a horizon that crosses midnight — at worker
// degrees 1 and 2, plus one range whose per-device indices pass 999,999 so
// the UE id's zero padding runs out. The sampler's math (exp, log, the
// diurnal cosines) may be fused into FMAs on other architectures, so the
// pins are checked on amd64, where they were recorded.
func TestGeneratePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	for _, c := range []struct {
		gen  events.Generation
		seed uint64
		want string
	}{
		{events.Gen4G, 3, "7e88c94955a42014e2f86cd7"}, // 2456 events
		{events.Gen4G, 4, "78eb69d44056de0dd8100dc4"}, // 3008 events
		{events.Gen5G, 3, "2671e44009d4ec4b8970e0a1"}, // 1961 events
		{events.Gen5G, 4, "4568e40ab317d517ce224207"}, // 2415 events
	} {
		cfg := Config{
			Generation: c.gen,
			Seed:       c.seed,
			UEs: map[events.DeviceType]int{
				events.Phone:        40,
				events.ConnectedCar: 30,
				events.Tablet:       25,
			},
			Hours:     3,
			StartHour: 22,
		}
		for _, par := range []int{1, 2} {
			streams, err := GenerateRange(cfg, 0, TotalUEs(cfg), par)
			if err != nil {
				t.Fatal(err)
			}
			if got := streamsDigest(streams); got != c.want {
				t.Errorf("%s seed=%d degree=%d: output (%d events) has digest %s, want %s",
					c.gen, c.seed, par, (&trace.Dataset{Streams: streams}).NumEvents(), got, c.want)
			}
		}
	}

	cfg := Config{
		Generation: events.Gen4G,
		Seed:       5,
		UEs:        map[events.DeviceType]int{events.Phone: 1_000_003},
		Hours:      1,
		StartHour:  8,
	}
	streams, err := GenerateRange(cfg, 999_997, 1_000_003, 1)
	if err != nil {
		t.Fatal(err)
	}
	if first, last := streams[0].UEID, streams[len(streams)-1].UEID; first != "phone-999997" || last != "phone-1000002" {
		t.Errorf("UE ids %s … %s, want phone-999997 … phone-1000002", first, last)
	}
	if got, want := streamsDigest(streams), "fcad1b8abc4ae848c95ee8e3"; got != want { // 72 events
		t.Errorf("indices past 999,999: output (%d events) has digest %s, want %s", (&trace.Dataset{Streams: streams}).NumEvents(), got, want)
	}
}

// firstDraw is a rand.Source whose first draw makes Float64 return the
// uniform whose 53 bits it holds, and whose every later draw makes it
// return 0.
type firstDraw struct {
	bits uint64
	used bool
}

func (s *firstDraw) Uint64() uint64 {
	if s.used {
		return 0
	}
	s.used = true
	return s.bits
}

// FuzzPoissonZeroShortcut checks poisson's zero shortcut for any mean in
// (0, 30] and first uniform u in [0, 1): whenever it fires, u ≤
// math.Exp(−mean), and poisson returns 0 exactly when u ≤ math.Exp(−mean)
// — Knuth's first test, which the unshortened draw makes.
func FuzzPoissonZeroShortcut(f *testing.F) {
	for _, mean := range []float64{0.07, 0.5, 1e-3, 1e-9, 2.5, 30} {
		for _, u := range []float64{1 - mean, 1 - mean - poissonEps} {
			f.Add(mean, math.Nextafter(u, 0))
			f.Add(mean, u)
			f.Add(mean, math.Nextafter(u, 1))
		}
	}
	for _, mean := range []float64{1e-300, 1e-17} {
		for _, u := range []float64{0, 0.5, 1 - 0x1p-40, 1 - 0x1p-41, 1 - 0x1p-53} {
			f.Add(mean, u)
		}
	}
	for _, mean := range []float64{1, math.Nextafter(1, 0), math.Nextafter(1, 2), 0.999999} {
		for _, u := range []float64{0, 0x1p-53, math.Exp(-mean), math.Nextafter(math.Exp(-mean), 1)} {
			f.Add(mean, u)
		}
	}
	f.Fuzz(func(t *testing.T, mean, u float64) {
		if !(mean > 0 && mean <= 30) || !(u >= 0 && u < 1) {
			t.Skip()
		}
		// Float64 yields multiples of 2⁻⁵³: take u down to that grid.
		bits := uint64(u * (1 << 53))
		u = float64(bits) / (1 << 53)
		l := math.Exp(-mean)
		if u < 1-mean-poissonEps && !(u <= l) {
			t.Fatalf("mean %v: shortcut fired at u %v above exp(-mean) %v", mean, u, l)
		}
		got := poisson(rand.New(&firstDraw{bits: bits}), mean)
		if (got == 0) != (u <= l) {
			t.Fatalf("mean %v, u %v, exp(-mean) %v: poisson drew %d", mean, u, l, got)
		}
	})
}

// BenchmarkGenerateRange times the sampler alone on one core: 2,650 UEs
// of all three devices over two hours, reported per UE.
func BenchmarkGenerateRange(b *testing.B) {
	cfg := Config{
		Generation: events.Gen4G,
		Seed:       1,
		UEs:        map[events.DeviceType]int{events.Phone: 1500, events.ConnectedCar: 650, events.Tablet: 500},
		Hours:      2,
		StartHour:  10,
	}
	n := TotalUEs(cfg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		streams, err := GenerateRange(cfg, 0, n, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchStreams = streams
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*n), "us/ue")
}

// benchStreams keeps the benchmarked output live.
var benchStreams []trace.Stream
