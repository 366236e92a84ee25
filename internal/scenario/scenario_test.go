package scenario

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/mcn"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
)

func mcnConfigForTest() mcn.Config { return mcn.DefaultConfig() }

// drainAll collects a scenario's full event sequence (test-sized runs only).
func drainAll(t *testing.T, spec *Spec, opts RunOpts) []Event {
	t.Helper()
	st, err := spec.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var out []Event
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		out = append(out, e)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// rate returns events/s of evs within [lo, hi).
func rate(evs []Event, lo, hi float64) float64 {
	var n int
	for _, e := range evs {
		if e.Time >= lo && e.Time < hi {
			n++
		}
	}
	return float64(n) / (hi - lo)
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := spec.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", got, spec)
	}
}

func TestSpecValidation(t *testing.T) {
	base := func() *Spec { s, _ := Builtin("flash-crowd"); return s }
	bad := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"bad generation", func(s *Spec) { s.Generation = "6G" }},
		{"zero horizon", func(s *Spec) { s.HorizonSec = 0 }},
		{"no sources", func(s *Spec) { s.Sources = nil }},
		{"dup source id", func(s *Spec) { s.Sources[1].ID = s.Sources[0].ID }},
		{"unknown kind", func(s *Spec) { s.Sources[0].Kind = "quantum" }},
		{"bad device mix", func(s *Spec) { s.Sources[0].DeviceMix = map[string]float64{"drone": 1} }},
		{"zero shares", func(s *Spec) { s.Sources[0].Share = 0; s.Sources[1].Share = 0 }},
		{"op unknown source", func(s *Spec) { s.Ops[0].Source = "nobody" }},
		{"op empty window", func(s *Spec) { s.Ops[0].Window = [2]float64{100, 100} }},
		{"op unknown name", func(s *Spec) { s.Ops[0].Op = "explode" }},
		{"ramp bad shape", func(s *Spec) { s.Ops[0].Shape = "sideways" }},
		{"amplify bad event", func(s *Spec) { s.Ops[2].Event = "NOPE" }},
		{"amplify factor<1", func(s *Spec) { s.Ops[2].Factor = 0.5 }},
		{"compress factor<=1", func(s *Spec) { s.Ops[1].Factor = 1 }},
		{"cptgpt no model", func(s *Spec) { s.Sources[0].Kind = "cptgpt"; s.Sources[0].ModelFile = "" }},
		{"cptgpt bad precision", func(s *Spec) {
			s.Sources[0].Kind = "cptgpt"
			s.Sources[0].ModelFile = "m.bin"
			s.Sources[0].Precision = "f16"
		}},
	}
	for _, tc := range bad {
		s := base()
		tc.mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected a validation error", tc.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatal(err)
	}
}

// badSourceFields are source-field values a run cannot open with. Before
// Validate and resolveSources shared SourceSpec.parse, Validate passed every
// one and Open failed — after the daemon had answered 201.
var badSourceFields = []struct {
	name, field string
	mut         func(*SourceSpec)
}{
	{"start hour out of range", "StartHour", func(s *SourceSpec) { s.StartHour = 99 }},
	{"negative device weight", "device_mix", func(s *SourceSpec) { s.DeviceMix = map[string]float64{"phone": -1} }},
	{"all-zero device mix", "device_mix", func(s *SourceSpec) { s.DeviceMix = map[string]float64{"phone": 0, "tablet": 0} }},
	{"unknown model device", "device", func(s *SourceSpec) { s.Kind, s.ModelFile, s.Device = "cptgpt", "no-such-model.bin", "toaster" }},
}

// TestLoadRefusesBadSourceFields: Validate, Load and Open agree on source
// field values, and the refusal names the source and the field.
func TestLoadRefusesBadSourceFields(t *testing.T) {
	for _, tc := range badSourceFields {
		spec, _ := Builtin("flash-crowd")
		tc.mut(&spec.Sources[0])
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := spec.Save(path); err != nil {
			t.Fatal(err)
		}
		_, loadErr := Load(path)
		_, openErr := spec.Open(RunOpts{UEs: 8, TempDir: t.TempDir()})
		for what, err := range map[string]error{"Validate": spec.Validate(), "Load": loadErr, "Open": openErr} {
			if err == nil {
				t.Errorf("%s: %s accepted the spec", tc.name, what)
			} else if msg := err.Error(); !strings.Contains(msg, tc.field) || !strings.Contains(msg, spec.Sources[0].ID) {
				t.Errorf("%s: %s error %q does not name source and field %q", tc.name, what, msg, tc.field)
			}
		}
	}
}

// TestRunOptsValidate pins the one check of the run-wide decode overrides
// that OpenContext, cptscenario and the daemon share.
func TestRunOptsValidate(t *testing.T) {
	for _, o := range []RunOpts{{}, {Speculative: "on", DraftTokens: 4}, {Speculative: "off"}} {
		if err := o.Validate(); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
	spec, _ := Builtin("flash-crowd")
	for _, o := range []RunOpts{{Speculative: "maybe"}, {Speculative: "ON"}, {DraftTokens: -1}} {
		if err := o.Validate(); err == nil {
			t.Errorf("%+v: accepted", o)
		}
		// Refused even when no cptgpt source would consult the override.
		o.TempDir = t.TempDir()
		if st, err := spec.Open(o); err == nil {
			st.Close()
			t.Errorf("%+v: an all-synthetic spec opened", o)
		}
	}
}

// FuzzSpecJSON feeds arbitrary bytes to the spec parser: Unmarshal and
// Validate never panic, a spec that validates still validates (and is the
// same spec) after Save → Load, and a validated all-synthetic spec of a
// sane length opens — Validate has already refused every spec-field value
// Open would.
func FuzzSpecJSON(f *testing.F) {
	for _, name := range Builtins() {
		spec, _ := Builtin(name)
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, tc := range badSourceFields {
		spec, _ := Builtin("flash-crowd")
		tc.mut(&spec.Sources[0])
		b, _ := json.Marshal(spec)
		f.Add(b)
	}
	f.Add([]byte(`{"name":"x","generation":"5G","horizon_sec":1e308,"sources":[{"id":"a","share":1e308},{"id":"b","share":1e308}]}`))
	f.Add([]byte(`{"name":"x","generation":"4G","horizon_sec":5,"sources":[{"id":"a","share":1,"device_mix":{"tablet":1e-300}}],"ops":[{"op":"thin","window":[0,1e9],"prob":1}]}`))
	f.Add([]byte(`{"name":"c","generation":"4G","horizon_sec":5,"sources":[{"id":"a","kind":"custom","share":1}]}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"sources":[null]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil || spec.Validate() != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := spec.Save(path); err != nil {
			t.Fatalf("valid spec does not save: %v", err)
		}
		again, err := Load(path)
		if err != nil {
			t.Fatalf("valid spec does not load back: %v", err)
		}
		// Compared as JSON: Save → Load may turn an empty container into nil.
		want, _ := json.Marshal(&spec)
		if got, _ := json.Marshal(again); !bytes.Equal(got, want) {
			t.Fatalf("Save → Load changed the spec:\n got %s\nwant %s", got, want)
		}
		for i := range spec.Sources {
			if k := spec.Sources[i].Kind; k != "" && k != "synthetic" {
				return
			}
		}
		if spec.HorizonSec > 7200 {
			return // opens, but simulates every hour of it
		}
		st, err := spec.Open(RunOpts{UEs: 4, TempDir: t.TempDir()})
		if err != nil {
			t.Fatalf("validated all-synthetic spec does not open: %v", err)
		}
		st.Close()
	})
}

func TestBuiltinRegistry(t *testing.T) {
	names := Builtins()
	if len(names) < 6 {
		t.Fatalf("only %d built-ins registered, need ≥ 6: %v", len(names), names)
	}
	for _, name := range names {
		spec, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Name != name {
			t.Fatalf("built-in %q reports name %q", name, spec.Name)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("built-in %q invalid: %v", name, err)
		}
	}
	if _, err := Builtin("no-such-scenario"); err == nil {
		t.Fatal("unknown built-in must error")
	}
}

// Every built-in must produce a non-empty, globally time-ordered sequence
// bounded by the horizon.
func TestBuiltinsStreamOrdered(t *testing.T) {
	for _, name := range Builtins() {
		spec, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		evs := drainAll(t, spec, RunOpts{UEs: 400})
		if len(evs) == 0 {
			t.Fatalf("%s: no events", name)
		}
		last := Event{Time: -1}
		for i, e := range evs {
			if e.Time < last.Time {
				t.Fatalf("%s: event %d at %v after %v", name, i, e.Time, last.Time)
			}
			if e.Time < 0 || e.Time >= spec.HorizonSec {
				t.Fatalf("%s: event %d at %v outside horizon %v", name, i, e.Time, spec.HorizonSec)
			}
			if !e.Type.Valid() || !e.Device.Valid() {
				t.Fatalf("%s: event %d has invalid type/device: %+v", name, i, e)
			}
			last = e
		}
	}
}

// Scenario signatures: each built-in must exhibit the workload shape it
// names.

func TestFlashCrowdSignature(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	evs := drainAll(t, spec, RunOpts{UEs: 800})
	// Baseline over the pre-crowd steady state (skip the initial attach
	// transient), storm over the crowd window.
	baseline := rate(evs, 300, 1200)
	storm := rate(evs, 1200, 1500)
	if storm < 5*baseline {
		t.Fatalf("flash-crowd window rate %.2f/s not ≥ 5x baseline %.2f/s", storm, baseline)
	}
}

func TestHandoverStormSignature(t *testing.T) {
	spec, err := Builtin("handover-storm")
	if err != nil {
		t.Fatal(err)
	}
	evs := drainAll(t, spec, RunOpts{UEs: 800})
	hoShare := func(lo, hi float64) float64 {
		var ho, all int
		for _, e := range evs {
			if e.Time >= lo && e.Time < hi {
				all++
				if e.Type == events.Handover {
					ho++
				}
			}
		}
		return float64(ho) / float64(all)
	}
	in, out := hoShare(900, 1800), hoShare(2100, 3600)
	if in < 2*out {
		t.Fatalf("handover-storm HO share in window %.3f not ≥ 2x outside %.3f", in, out)
	}
}

func TestPagingStormSignature(t *testing.T) {
	spec, err := Builtin("paging-storm")
	if err != nil {
		t.Fatal(err)
	}
	evs := drainAll(t, spec, RunOpts{UEs: 800})
	srvRate := func(lo, hi float64) float64 {
		var n int
		for _, e := range evs {
			if e.Time >= lo && e.Time < hi && e.Type == events.ServiceRequest {
				n++
			}
		}
		return float64(n) / (hi - lo)
	}
	in, out := srvRate(600, 1200), srvRate(1800, 3600)
	if in < 3*out {
		t.Fatalf("paging-storm SRV_REQ rate in window %.2f/s not ≥ 3x outside %.2f/s", in, out)
	}
}

func TestIoTBurstSignature(t *testing.T) {
	spec, err := Builtin("iot-burst")
	if err != nil {
		t.Fatal(err)
	}
	evs := drainAll(t, spec, RunOpts{UEs: 800})
	iotRate := func(lo, hi float64) float64 {
		var n int
		for _, e := range evs {
			if e.Time >= lo && e.Time < hi && e.Device != events.Phone {
				n++
			}
		}
		return float64(n) / (hi - lo)
	}
	burst, before := iotRate(1800, 2100), iotRate(300, 1800)
	if burst < 5*before {
		t.Fatalf("iot-burst device rate %.2f/s not ≥ 5x pre-burst %.2f/s", burst, before)
	}
}

func TestFailureRecoveryWaveSignature(t *testing.T) {
	spec, err := Builtin("failure-recovery-wave")
	if err != nil {
		t.Fatal(err)
	}
	evs := drainAll(t, spec, RunOpts{UEs: 800})
	pre := rate(evs, 600, 1500)
	outage := rate(evs, 1500, 1800)
	wave := rate(evs, 1800, 2100)
	if outage > 0.02*pre {
		t.Fatalf("outage window rate %.3f/s not ~0 (pre %.3f/s)", outage, pre)
	}
	if wave < 1.5*pre {
		t.Fatalf("recovery wave rate %.2f/s not ≥ 1.5x pre-outage %.2f/s", wave, pre)
	}
	// The wave must lead with attaches (re-registration).
	var atch, all int
	for _, e := range evs {
		if e.Time >= 1800 && e.Time < 1860 {
			all++
			if e.Type == events.Attach {
				atch++
			}
		}
	}
	if all == 0 || float64(atch)/float64(all) < 0.2 {
		t.Fatalf("recovery wave is not attach-led: %d/%d", atch, all)
	}
}

func TestMixShiftSignature(t *testing.T) {
	spec, err := Builtin("mix-shift")
	if err != nil {
		t.Fatal(err)
	}
	evs := drainAll(t, spec, RunOpts{UEs: 800})
	carShare := func(lo, hi float64) float64 {
		var car, all int
		for _, e := range evs {
			if e.Time >= lo && e.Time < hi {
				all++
				if e.Device == events.ConnectedCar {
					car++
				}
			}
		}
		if all == 0 {
			return 0
		}
		return float64(car) / float64(all)
	}
	first, second := carShare(0, 1800), carShare(1800, 3600)
	if second < first+0.3 {
		t.Fatalf("mix-shift car share did not shift: %.3f → %.3f", first, second)
	}
}

func TestBaselineDiurnalSignature(t *testing.T) {
	spec, err := Builtin("baseline-diurnal")
	if err != nil {
		t.Fatal(err)
	}
	evs := drainAll(t, spec, RunOpts{UEs: 400})
	// Hours must differ in activity (the diurnal curve), without any
	// storm-scale spike: a drifting baseline.
	h1 := rate(evs, 3600, 7200)
	h2 := rate(evs, 7200, 10800)
	if h1 == 0 || h2 == 0 {
		t.Fatal("baseline hours empty")
	}
	ratio := h1 / h2
	if ratio < 1.02 && ratio > 0.98 {
		t.Fatalf("no diurnal drift between hours: %.2f vs %.2f events/s", h1, h2)
	}
	if ratio > 3 || ratio < 1.0/3 {
		t.Fatalf("baseline drifted like a storm: %.2f vs %.2f events/s", h1, h2)
	}
}

// The engine's determinism guarantee: identical output at every
// Parallelism × BatchSize, including when the hierarchical merge path
// (MaxFanIn ≪ runs) kicks in.
func TestDeterministicAcrossParallelismAndBatch(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	want := drainAll(t, spec, RunOpts{UEs: 300, Parallelism: 1, BatchSize: 300})
	for _, par := range []int{1, 4} {
		for _, batch := range []int{13, 64, 300} {
			for _, fanIn := range []int{0, 2} {
				got := drainAll(t, spec, RunOpts{UEs: 300, Parallelism: par, BatchSize: batch, MaxFanIn: fanIn})
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("parallelism=%d batch=%d fanIn=%d diverged (%d vs %d events)",
						par, batch, fanIn, len(got), len(want))
				}
			}
		}
	}
}

// TestCPTGPTSourcePrecision runs a cptgpt-model source end-to-end through
// the streaming pipeline: the output is deterministic across Parallelism ×
// BatchSize and the same whether the spec leaves precision unset or names
// "f32", the one decode arithmetic; a spec asking for "f64" fails Validate
// with an error naming the removal.
func TestCPTGPTSourcePrecision(t *testing.T) {
	cfg := cptgpt.DefaultConfig()
	cfg.DModel = 16
	cfg.Heads = 2
	cfg.MLPHidden = 32
	cfg.HeadHidden = 16
	cfg.MaxLen = 40
	tk := cptgpt.Tokenizer{Gen: events.Gen4G, MinLog: 0, MaxLog: 5, LogScale: true}
	m, err := cptgpt.NewModel(cfg, tk)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.bin")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	withPrecision := func(p string) *Spec {
		return &Spec{
			Name: "precision-test", Generation: "4G", Seed: 3, HorizonSec: 600, Population: 50,
			Sources: []SourceSpec{{ID: "gpt", Kind: "cptgpt", ModelFile: path, Share: 1, Precision: p}},
		}
	}
	spec := withPrecision("")
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	want := drainAll(t, spec, RunOpts{})
	if len(want) == 0 {
		t.Fatal("scenario emitted no events")
	}
	if got := drainAll(t, spec, RunOpts{Parallelism: 2, BatchSize: 8}); !reflect.DeepEqual(got, want) {
		t.Fatal("scenario output differs across Parallelism × BatchSize")
	}
	for _, p := range []string{"f32", "float32", "F32"} {
		if got := drainAll(t, withPrecision(p), RunOpts{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("precision %q: output differs from the default's", p)
		}
	}
	for _, p := range []string{"f64", "float64", "F64"} {
		err := withPrecision(p).Validate()
		if err == nil || !strings.Contains(err.Error(), "float64 decode was removed") || !strings.Contains(err.Error(), `"gpt"`) {
			t.Errorf("precision %q: Validate = %v, want an error naming the source and the removal", p, err)
		}
	}
}

// TestCPTGPTSpecPinned pins the JSONL bytes of a cptgpt-source spec over the
// cptgpt package's parent-model.bin fixture, run through Spec.Open into the
// jsonl sink under each float32 GEMM kernel set. The digests were recorded
// while the spec had to ask for "precision": "f32", before float32 became
// the only decode arithmetic: a spec that leaves it unset must equal them.
func TestCPTGPTSpecPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	spec := &Spec{
		Name: "parent-model", Generation: "4G", Seed: 42, HorizonSec: 600, Population: 24,
		Sources: []SourceSpec{{ID: "gpt", Kind: "cptgpt", ModelFile: "../cptgpt/testdata/parent-model.bin", Share: 1}},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	defer tensor.SetGemmF32Asm(tensor.GemmF32Asm())
	want := map[bool]string{
		false: "e50c558be0a00aca71b63be299842b1a68457a696d33748e18f895c4d2a0b1b5",
		true:  "6dfc35f1417bcd0f9bf88c3bd32effe257af91b18d3e258e16e2b1e710ec2c4c",
	}
	for _, asm := range []bool{false, true} {
		if tensor.SetGemmF32Asm(asm); tensor.GemmF32Asm() != asm {
			continue // no AVX2 on this machine
		}
		st, err := spec.Open(RunOpts{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		sink, err := NewSink(SinkConfig{Name: "jsonl", Stdout: &buf})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sink.Consume(context.Background(), st)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want[asm] {
			t.Errorf("asm=%v: %d lines, digest %s, want %s", asm, bytes.Count(buf.Bytes(), []byte("\n")), got, want[asm])
		}
	}
}

// TestCPTGPTSourceStepFanout pins the generation phase's one core budget:
// chunk workers × per-step fan-out ≤ RunOpts.Parallelism. With 4 cores, a
// population cut into four chunks decodes every step inline (the tensor
// worker pool executes nothing), while one or two chunks leave their
// decoders 4 or 2 cores each and the pool works — a run of fewer chunks than
// cores must not fall back to one core. Same events in all three.
func TestCPTGPTSourceStepFanout(t *testing.T) {
	cfg := cptgpt.DefaultConfig() // paper-scale layers: a step clears the pool's work threshold
	cfg.MaxLen = 24
	tk := cptgpt.Tokenizer{Gen: events.Gen4G, MinLog: 0, MaxLog: 5, LogScale: true}
	m, err := cptgpt.NewModel(cfg, tk)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.bin")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	spec := &Spec{
		Name: "fanout-test", Generation: "4G", Seed: 5, HorizonSec: 600, Population: 64,
		Sources: []SourceSpec{{ID: "gpt", Kind: "cptgpt", ModelFile: path, Share: 1}},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	defer tensor.SetParallelism(tensor.SetParallelism(4))
	var want []Event
	for _, c := range []struct {
		chunk  int
		pooled bool
	}{{64, true}, {32, true}, {16, false}} {
		before := tensor.PoolLoad().ValidPolls
		got := drainAll(t, spec, RunOpts{Parallelism: 4, BatchSize: c.chunk})
		if n := tensor.PoolLoad().ValidPolls - before; (n > 0) != c.pooled {
			t.Fatalf("chunk=%d (%d chunks on 4 cores): %d pool shards, want pooled=%v", c.chunk, 64/c.chunk, n, c.pooled)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("chunk=%d diverged (%d vs %d events)", c.chunk, len(got), len(want))
		}
	}
}

// TestCPTGPTSourceSpeculative runs a cptgpt-model source through the
// pipeline with speculative decoding: spec-declared speculation must be
// deterministic across Parallelism × BatchSize, the run-wide override must
// switch it on/off against the spec, and a bad override must error.
func TestCPTGPTSourceSpeculative(t *testing.T) {
	cfg := cptgpt.DefaultConfig()
	cfg.DModel = 16
	cfg.Heads = 2
	cfg.MLPHidden = 32
	cfg.HeadHidden = 16
	cfg.MaxLen = 40
	tk := cptgpt.Tokenizer{Gen: events.Gen4G, MinLog: 0, MaxLog: 5, LogScale: true}
	m, err := cptgpt.NewModel(cfg, tk)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.bin")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	spec := &Spec{
		Name: "speculative-test", Generation: "4G", Seed: 3, HorizonSec: 600, Population: 40,
		Sources: []SourceSpec{{ID: "gpt", Kind: "cptgpt", ModelFile: path, Share: 1,
			Speculative: true, DraftTokens: 3}},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	specA := drainAll(t, spec, RunOpts{})
	if len(specA) == 0 {
		t.Fatal("speculative scenario emitted no events")
	}
	specB := drainAll(t, spec, RunOpts{Parallelism: 2, BatchSize: 8})
	if !reflect.DeepEqual(specA, specB) {
		t.Fatal("speculative scenario output differs across Parallelism × BatchSize")
	}
	// "off" override must reproduce the plain-decode pipeline exactly.
	plainSpec := *spec
	plainSpec.Sources = append([]SourceSpec(nil), spec.Sources...)
	plainSpec.Sources[0].Speculative = false
	plain := drainAll(t, &plainSpec, RunOpts{})
	off := drainAll(t, spec, RunOpts{Speculative: "off"})
	if !reflect.DeepEqual(plain, off) {
		t.Fatal(`RunOpts.Speculative "off" must match a non-speculative spec`)
	}
	// "on" override over the plain spec must match the speculative spec.
	on := drainAll(t, &plainSpec, RunOpts{Speculative: "on", DraftTokens: 3})
	if !reflect.DeepEqual(specA, on) {
		t.Fatal(`RunOpts.Speculative "on" must match a speculative spec`)
	}
	if _, err := spec.Open(RunOpts{Speculative: "sometimes"}); err == nil {
		t.Fatal("bad RunOpts.Speculative must error")
	}
	bad := *spec
	bad.Sources = append([]SourceSpec(nil), spec.Sources...)
	bad.Sources[0].DraftTokens = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative draft_tokens must fail validation")
	}
}

// A custom ChunkFunc binds an arbitrary generator into a spec.
func TestCustomSourceBinding(t *testing.T) {
	spec := &Spec{
		Name: "custom-test", Generation: "4G", Seed: 1, HorizonSec: 100, Population: 10,
		Sources: []SourceSpec{{ID: "mine", Kind: "custom", Share: 1}},
	}
	if _, err := spec.Open(RunOpts{}); err == nil {
		t.Fatal("custom kind without a binding must error")
	}
	chunk := func(lo, hi int) ([]trace.Stream, error) {
		out := make([]trace.Stream, hi-lo)
		for i := range out {
			out[i] = trace.Stream{
				UEID: fmt.Sprintf("c-%d", lo+i), Device: events.Tablet,
				Events: []trace.Event{{Time: float64(lo+i) + 0.5, Type: events.Attach}},
			}
		}
		return out, nil
	}
	st, err := spec.Open(RunOpts{Sources: map[string]ChunkFunc{"mine": chunk}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var n int
	for {
		e, ok := st.Next()
		if !ok {
			break
		}
		if want := fmt.Sprintf("mine-%07d", n); st.UEID(e) != want {
			t.Fatalf("UEID %q, want %q", st.UEID(e), want)
		}
		if e.Device != events.Tablet || e.Type != events.Attach {
			t.Fatalf("unexpected event %+v", e)
		}
		n++
	}
	if n != 10 {
		t.Fatalf("drained %d events, want 10", n)
	}
}

// Operator unit semantics over a hand-built stream.
func TestOperatorSemantics(t *testing.T) {
	mk := func() *trace.Stream {
		return &trace.Stream{UEID: "u", Device: events.Phone, Events: []trace.Event{
			{Time: 10, Type: events.Attach},
			{Time: 100, Type: events.ServiceRequest},
			{Time: 150, Type: events.Handover},
			{Time: 200, Type: events.S1ConnRel},
			{Time: 400, Type: events.ServiceRequest},
		}}
	}
	apply := func(op OpSpec, s *trace.Stream) []trace.Event {
		c := compiledOp{spec: op, seed: 42}
		if op.Op == "amplify" {
			ev, err := events.ParseType(op.Event)
			if err != nil {
				t.Fatal(err)
			}
			c.ev = ev
		}
		return applyOps([]compiledOp{c}, s, 7, 1000, nil)
	}

	// clip keeps only the window.
	s := mk()
	got := apply(OpSpec{Op: "clip", Window: [2]float64{100, 201}}, s)
	if len(got) != 3 || got[0].Time != 100 || got[2].Time != 200 {
		t.Fatalf("clip wrong: %+v", got)
	}

	// thin with prob 1 empties the window, keeps the rest.
	s = mk()
	got = apply(OpSpec{Op: "thin", Window: [2]float64{100, 201}, Prob: 1}, s)
	if len(got) != 2 || got[0].Time != 10 || got[1].Time != 400 {
		t.Fatalf("thin wrong: %+v", got)
	}

	// compress squeezes the window and pulls the tail forward.
	s = mk()
	got = apply(OpSpec{Op: "compress", Window: [2]float64{100, 300}, Factor: 2}, s)
	want := []float64{10, 100, 125, 150, 300}
	for i, w := range want {
		if math.Abs(got[i].Time-w) > 1e-9 {
			t.Fatalf("compress event %d at %v, want %v (%+v)", i, got[i].Time, w, got)
		}
	}

	// amplify with an integer factor multiplies matching events exactly.
	s = mk()
	got = apply(OpSpec{Op: "amplify", Window: [2]float64{0, 1000}, Event: "SRV_REQ", Factor: 3}, s)
	var srv int
	for _, e := range got {
		if e.Type == events.ServiceRequest {
			srv++
		}
	}
	if srv != 6 {
		t.Fatalf("amplify x3 produced %d SRV_REQ, want 6", srv)
	}
	if len(got) != 9 {
		t.Fatalf("amplify changed non-target events: %d total, want 9", len(got))
	}

	// ramp(uniform) moves the first event into the window, preserving
	// relative offsets.
	s = mk()
	got = apply(OpSpec{Op: "ramp", Window: [2]float64{500, 600}, Shape: "uniform"}, s)
	if got[0].Time < 500 || got[0].Time >= 600 {
		t.Fatalf("ramp start %v outside window", got[0].Time)
	}
	if d := (got[1].Time - got[0].Time) - 90; math.Abs(d) > 1e-9 {
		t.Fatalf("ramp broke relative offsets by %v", d)
	}
}

// Sinks: JSONL and CSV event writers emit one line per event.
func TestEventWriterSinks(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	write := func(format string) (string, int64) {
		t.Helper()
		st, err := spec.Open(RunOpts{UEs: 60})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var buf bytes.Buffer
		sink, err := NewSink(SinkConfig{Name: format, Stdout: &buf})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sink.Consume(context.Background(), st)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String(), res.(fileResult).Events
	}
	jsonl, nj := write("jsonl")
	if nj == 0 || int64(strings.Count(jsonl, "\n")) != nj {
		t.Fatalf("JSONL sink wrote %d events, %d lines", nj, strings.Count(jsonl, "\n"))
	}
	csv, nc := write("csv")
	if nc != nj {
		t.Fatalf("CSV sink wrote %d events, JSONL wrote %d", nc, nj)
	}
	if !strings.HasPrefix(csv, "ue_id,device_type,timestamp,event_type\n") {
		t.Fatal("CSV sink missing header")
	}
}

// The MCN sink consumes the stream and accounts for every event.
func TestMCNSinkConsumesScenario(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	st, err := spec.Open(RunOpts{UEs: 200})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Drain(st)
	st.Close()
	if err != nil {
		t.Fatal(err)
	}

	st, err = spec.Open(RunOpts{UEs: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rep, err := RunMCN(st, mcnConfigForTest())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != sum.Events {
		t.Fatalf("MCN processed %d events, scenario emitted %d", rep.Events, sum.Events)
	}
	if rep.UEs == 0 || rep.MaxInstancesUsed < rep.FinalInstances {
		t.Fatalf("implausible MCN report: %+v", rep)
	}
	// The synthetic sources are semantically valid; only operator-injected
	// duplicates (amplified SRV_REQ) may be rejected.
	if frac := float64(rep.Rejected) / float64(rep.Events); frac > 0.2 {
		t.Fatalf("rejection fraction %.3f implausibly high", frac)
	}
}

func TestDrainSummary(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	st, err := spec.Open(RunOpts{UEs: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sum, err := Drain(st)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Events == 0 || sum.LastTime < sum.FirstTime || sum.LastTime >= spec.HorizonSec {
		t.Fatalf("implausible summary: %+v", sum)
	}
	var byType int
	for _, n := range sum.ByType {
		byType += n
	}
	if byType != sum.Events {
		t.Fatalf("ByType sums to %d, want %d", byType, sum.Events)
	}
	// The crowd spike must dominate the peak-rate window.
	if sum.PeakWindowStart < 1100 || sum.PeakWindowStart > 1600 {
		t.Fatalf("peak window at %v, want inside the crowd spike", sum.PeakWindowStart)
	}
}
