package cptgen

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cptgpt/internal/cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/netshare"
	"cptgpt/internal/scenario"
)

// traceFormats are the four file names a trace can be saved under.
var traceFormats = []string{"t.csv", "t.csv.gz", "t.jsonl", "t.jsonl.gz"}

// TestLoadTraceReadsScenarioSinks: a scenario run written by the csv and
// jsonl file sinks, gzipped or not, loads through LoadTrace into the run's
// UE streams — the same UEs, each with its own events in order — so
// cpteval scores a run per UE, not per row.
func TestLoadTraceReadsScenarioSinks(t *testing.T) {
	spec, err := BuiltinScenario("baseline-diurnal")
	if err != nil {
		t.Fatal(err)
	}
	const ues = 300
	opts := ScenarioRunOpts{UEs: ues, TempDir: t.TempDir()}
	st, err := OpenScenario(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := &Dataset{Generation: st.Generation()}
	idx := map[string]int{}
	for e, ok := st.Next(); ok; e, ok = st.Next() {
		id := st.UEID(e)
		i, seen := idx[id]
		if !seen {
			i = len(want.Streams)
			idx[id] = i
			want.Streams = append(want.Streams, Stream{UEID: id, Device: e.Device})
		}
		want.Streams[i].Events = append(want.Streams[i].Events, Event{Time: e.Time, Type: e.Type})
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if n := want.NumStreams(); n == 0 || n > ues || want.NumEvents() <= n {
		t.Fatalf("the run has %d UEs and %d events", n, want.NumEvents())
	}

	dir := t.TempDir()
	for _, name := range traceFormats {
		path := filepath.Join(dir, name)
		st, err := OpenScenario(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		format := "jsonl"
		if strings.Contains(name, ".csv") {
			format = "csv"
		}
		sink, err := scenario.NewSink(scenario.SinkConfig{Name: format, Out: path})
		if err != nil {
			t.Fatal(err)
		}
		_, err = sink.Consume(context.Background(), st)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		got, err := LoadTrace(path, want.Generation)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: loaded %d streams of %d events, the run has %d UEs", name, got.NumStreams(), got.NumEvents(), want.NumStreams())
		}
	}
}

// TestTraceRoundTripGenerators: what each generator emits, at two seeds,
// loads back from SaveTrace deep-equal in every format.
func TestTraceRoundTripGenerators(t *testing.T) {
	dir := t.TempDir()
	for _, seed := range []uint64{1, 2} {
		gtCfg := DefaultGroundTruthConfig()
		gtCfg.Seed = seed
		gtCfg.UEs = map[events.DeviceType]int{Phone: 40, ConnectedCar: 20, Tablet: 10}
		gtCfg.Hours = 1
		real, err := GenerateGroundTruth(gtCfg)
		if err != nil {
			t.Fatal(err)
		}
		smmModel, err := FitSMM(real, DefaultSMMConfig())
		if err != nil {
			t.Fatal(err)
		}
		smmGen, err := smmModel.Generate(SMMGenOpts{NumStreams: 40, Device: Tablet, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		nsCfg := netshare.DefaultConfig()
		nsCfg.BatchGen, nsCfg.Steps, nsCfg.NoiseDim, nsCfg.Hidden, nsCfg.DiscHidden = 2, 8, 4, 8, 8
		nsModel, err := netshare.New(nsCfg)
		if err != nil {
			t.Fatal(err)
		}
		nsGen, err := nsModel.Generate(NetShareGenOpts{NumStreams: 40, Device: ConnectedCar, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		gptCfg := cptgpt.DefaultConfig()
		gptCfg.DModel, gptCfg.Heads, gptCfg.MLPHidden, gptCfg.HeadHidden, gptCfg.MaxLen = 8, 2, 16, 8, 64
		gpt, err := cptgpt.NewModel(gptCfg, cptgpt.FitTokenizer(real))
		if err != nil {
			t.Fatal(err)
		}
		gptGen, err := gpt.Generate(CPTGPTGenOpts{NumStreams: 40, Device: Phone, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for gen, d := range map[string]*Dataset{"cptgen": real, "smm": smmGen, "netshare": nsGen, "cptgpt": gptGen} {
			for _, name := range traceFormats {
				path := filepath.Join(dir, fmt.Sprintf("%s-%d-%s", gen, seed, name))
				if err := SaveTrace(path, d); err != nil {
					t.Fatal(err)
				}
				got, err := LoadTrace(path, d.Generation)
				if err != nil {
					t.Fatalf("%s seed %d %s: %v", gen, seed, name, err)
				}
				if !reflect.DeepEqual(got, d) {
					t.Fatalf("%s seed %d %s: %d streams, %d events loaded back as %d, %d", gen, seed, name,
						d.NumStreams(), d.NumEvents(), got.NumStreams(), got.NumEvents())
				}
			}
		}
	}
}
