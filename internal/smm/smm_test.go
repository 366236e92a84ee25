package smm

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/metrics"
	"cptgpt/internal/synthetic"
	"cptgpt/internal/trace"
)

func groundTruth(t *testing.T, seed uint64, ues int) *trace.Dataset {
	t.Helper()
	d, err := synthetic.Generate(synthetic.Config{
		Generation: events.Gen4G,
		Seed:       seed,
		UEs:        map[events.DeviceType]int{events.Phone: ues},
		Hours:      1,
		StartHour:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestFitAndGenerateSMM1(t *testing.T) {
	d := groundTruth(t, 1, 200)
	m, err := Fit(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 1 {
		t.Fatalf("SMM-1 cluster count %d", m.K())
	}
	if m.NumCDFs() == 0 {
		t.Fatal("no sojourn CDFs fitted")
	}
	gen, err := m.Generate(GenOpts{NumStreams: 300, Device: events.Phone, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if gen.NumStreams() != 300 {
		t.Fatalf("generated %d streams", gen.NumStreams())
	}

	// Core SMM property: zero violations by construction.
	agg := metrics.Replay(gen)
	if agg.ViolatingEvents != 0 {
		t.Fatalf("SMM generated %d violating events; must be 0 by construction", agg.ViolatingEvents)
	}

	// Horizon property: all events inside the fitting horizon.
	for i := range gen.Streams {
		for _, e := range gen.Streams[i].Events {
			if e.Time < 0 || e.Time >= m.Cfg.Horizon {
				t.Fatalf("event at %v outside horizon %v", e.Time, m.Cfg.Horizon)
			}
		}
	}
}

func TestClusteredSMMBeatsSingleOnFlowLength(t *testing.T) {
	train := groundTruth(t, 3, 400)
	test := groundTruth(t, 4, 400)

	cfg1 := DefaultConfig()
	m1, err := Fit(train, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfgK := DefaultConfig()
	cfgK.K = 12
	mK, err := Fit(train, cfgK)
	if err != nil {
		t.Fatal(err)
	}
	if mK.K() <= 1 {
		t.Fatalf("clustered fit produced %d clusters", mK.K())
	}

	g1, err := m1.Generate(GenOpts{NumStreams: 400, Device: events.Phone, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	gK, err := mK.Generate(GenOpts{NumStreams: 400, Device: events.Phone, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	f1 := metrics.Evaluate(test, g1)
	fK := metrics.Evaluate(test, gK)
	// The paper's central SMM finding: one model cannot capture UE
	// heterogeneity; clustering recovers the flow-length distribution.
	if fK.FlowLenMaxY >= f1.FlowLenMaxY {
		t.Fatalf("clustered SMM should improve flow length: SMM-1 %.3f vs SMM-K %.3f",
			f1.FlowLenMaxY, fK.FlowLenMaxY)
	}
}

func TestGenerateDeterministicForSeed(t *testing.T) {
	d := groundTruth(t, 7, 100)
	m, err := Fit(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	g1, err := m.Generate(GenOpts{NumStreams: 50, Device: events.Phone, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := m.Generate(GenOpts{NumStreams: 50, Device: events.Phone, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range g1.Streams {
		if len(g1.Streams[i].Events) != len(g2.Streams[i].Events) {
			t.Fatal("same seed must generate identical traces")
		}
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(&trace.Dataset{Generation: events.Gen4G}, DefaultConfig()); err == nil {
		t.Fatal("empty dataset must error")
	}
	d := groundTruth(t, 8, 10)
	bad := DefaultConfig()
	bad.K = 0
	if _, err := Fit(d, bad); err == nil {
		t.Fatal("K=0 must error")
	}
	bad = DefaultConfig()
	bad.Horizon = -1
	if _, err := Fit(d, bad); err == nil {
		t.Fatal("negative horizon must error")
	}
}

func TestGenerateValidation(t *testing.T) {
	d := groundTruth(t, 9, 20)
	m, err := Fit(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Generate(GenOpts{NumStreams: 0}); err == nil {
		t.Fatal("NumStreams=0 must error")
	}
}

func TestFit5G(t *testing.T) {
	d, err := synthetic.Generate(synthetic.Config{
		Generation: events.Gen5G,
		Seed:       10,
		UEs:        map[events.DeviceType]int{events.Phone: 100},
		Hours:      1,
		StartHour:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := Fit(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gen, err := m.Generate(GenOpts{NumStreams: 100, Device: events.Phone, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if agg := metrics.Replay(gen); agg.ViolatingEvents != 0 {
		t.Fatalf("5G SMM produced %d violations", agg.ViolatingEvents)
	}
}

// TestGenerateParallelismInvariant is the SMM determinism guarantee: the
// same seed yields bit-identical streams at every parallelism degree.
func TestGenerateParallelismInvariant(t *testing.T) {
	d := groundTruth(t, 12, 120)
	cfg := DefaultConfig()
	cfg.K = 4
	m, err := Fit(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := GenOpts{NumStreams: 80, Device: events.Phone, Seed: 21, StartWindow: 60, Parallelism: 1}
	want, err := m.Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		opts := base
		opts.Parallelism = p
		got, err := m.Generate(opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Streams {
			w, g := want.Streams[i], got.Streams[i]
			if w.UEID != g.UEID || len(w.Events) != len(g.Events) {
				t.Fatalf("parallelism %d: stream %d differs (%d vs %d events)", p, i, len(g.Events), len(w.Events))
			}
			for j := range w.Events {
				if w.Events[j] != g.Events[j] {
					t.Fatalf("parallelism %d: stream %d event %d = %+v, want %+v", p, i, j, g.Events[j], w.Events[j])
				}
			}
		}
	}
}

// streamsDigest hashes a generated population: identities, event types and
// the exact bits of every timestamp (the shape cptgpt's pinned tests use).
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

// TestSMMGeneratePinned pins Generate's exact output for SMM-1 and SMM-K at
// two seeds and two parallelism degrees to digests recorded before the
// fit-time tables only the removed speculative-draft proposer read were
// dropped from fitCluster, so fitting and sampling are held to moving no bit.
// The k-means fit and the ground truth are float arithmetic the compiler may
// fuse into FMAs on other architectures, so the pins are checked on amd64,
// where they were recorded.
func TestSMMGeneratePinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	d := groundTruth(t, 13, 150)
	for _, c := range []struct {
		k    int
		seed uint64
		want string
	}{
		{1, 31, "bf474732eacf19ff2fbba8bc"}, // 3212 events
		{1, 32, "85f625cbb63870df344d2044"}, // 3032 events
		{4, 31, "f70e11d45dab28c95c565eb2"}, // 2723 events
		{4, 32, "677d575bf833d9ae7097a801"}, // 3004 events
	} {
		cfg := DefaultConfig()
		cfg.K = c.k
		m, err := Fit(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2} {
			gen, err := m.Generate(GenOpts{NumStreams: 120, Device: events.Phone, Seed: c.seed,
				StartWindow: 60, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			if got := streamsDigest(gen.Streams); got != c.want {
				t.Errorf("K=%d seed=%d parallelism=%d: output (%d events) has digest %s, want %s",
					c.k, c.seed, par, gen.NumEvents(), got, c.want)
			}
		}
	}
}

// Chunked emission must concatenate to exactly Generate's output.
func TestSMMGenerateRangeMatchesGenerate(t *testing.T) {
	d := groundTruth(t, 3, 120)
	m, err := Fit(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := GenOpts{NumStreams: 33, Device: events.Phone, Seed: 8, StartWindow: 60}
	full, err := m.Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 5, 33} {
		var got []trace.Stream
		for lo := 0; lo < opts.NumStreams; lo += chunk {
			hi := lo + chunk
			if hi > opts.NumStreams {
				hi = opts.NumStreams
			}
			part, err := m.GenerateRange(lo, hi, opts)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, part...)
		}
		if !reflect.DeepEqual(got, full.Streams) {
			t.Fatalf("chunk size %d diverged from Generate", chunk)
		}
	}
	if _, err := m.GenerateRange(-1, 2, opts); err == nil {
		t.Fatal("negative range must error")
	}
}
