package metrics

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/statemachine"
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

func TestReplayCleanDataset(t *testing.T) {
	d := groundTruth(t, 1, 80)
	agg := Replay(d)
	if agg.EventViolationRate() != 0 || agg.StreamViolationRate() != 0 {
		t.Fatalf("ground truth must replay clean: %v / %v",
			agg.EventViolationRate(), agg.StreamViolationRate())
	}
	if len(agg.MeanSojourns(statemachine.TopConnected)) == 0 || len(agg.MeanSojourns(statemachine.TopIdle)) == 0 {
		t.Fatal("expected sojourn samples")
	}
	if agg.UEs != len(d.Streams) {
		t.Fatalf("%d UEs replayed, dataset has %d streams", agg.UEs, len(d.Streams))
	}
}

// A stream with no events is still a UE of Table 5's denominator.
func TestReplayCountsEmptyStreams(t *testing.T) {
	d := &trace.Dataset{Generation: events.Gen4G, Streams: []trace.Stream{
		{Events: []trace.Event{{Time: 0, Type: events.ServiceRequest}, {Time: 1, Type: events.ServiceRequest}}},
		{},
		{Events: []trace.Event{{Time: 0, Type: events.Attach}}},
		{},
	}}
	agg := Replay(d)
	if agg.UEs != 4 || agg.ViolatedUEs != 1 || agg.StreamViolationRate() != 0.25 {
		t.Fatalf("%d UEs, %d violated, stream violation rate %v; want 4, 1, 0.25",
			agg.UEs, agg.ViolatedUEs, agg.StreamViolationRate())
	}
}

// Property: a tally does not depend on how UEs interleave. A dataset fed
// stream by stream (Replay) and fed as its time-merged arrival sequence
// (what the MCN simulator and the replay drivers consume) gives the same
// counts, the same violations by (state, event) and the same violated UEs,
// and the same per-UE sojourn means up to order — for both generations, on
// datasets damaged so that there are violations to count.
func TestReplayIndependentOfInterleaving(t *testing.T) {
	for _, gen := range []events.Generation{events.Gen4G, events.Gen5G} {
		for seed := uint64(1); seed <= 4; seed++ {
			d, err := synthetic.Generate(synthetic.Config{
				Generation: gen, Seed: seed,
				UEs:   map[events.DeviceType]int{events.Phone: 40, events.Tablet: 10},
				Hours: 1, StartHour: 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Drop about one event in six, which strands later ones.
			rng := rand.New(rand.NewPCG(seed, uint64(gen)))
			for i := range d.Streams {
				s := &d.Streams[i]
				s.Events = slices.DeleteFunc(s.Events, func(trace.Event) bool { return rng.IntN(6) == 0 })
				if len(s.Events) == 0 {
					s.Events = []trace.Event{{Time: 1, Type: events.ServiceRequest}}
				}
			}
			byStream := Replay(d)
			merged := statemachine.NewTally(statemachine.New(gen))
			src := d.Arrivals()
			for {
				a, ok, err := src.NextArrival()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				merged.Observe(a.UE, a.Type, a.Time)
			}
			if byStream.ViolatingEvents == 0 {
				t.Fatalf("%v seed %d: damaged dataset has no violations; the test would prove nothing", gen, seed)
			}
			type counts struct{ events, counted, violating, ues, violated int }
			count := func(tl *statemachine.Tally) counts {
				return counts{tl.Events, tl.CountedEvents, tl.ViolatingEvents, tl.UEs, tl.ViolatedUEs}
			}
			if a, b := count(byStream), count(merged); a != b {
				t.Fatalf("%v seed %d: by stream %+v, merged %+v", gen, seed, a, b)
			}
			if !reflect.DeepEqual(byStream.ByStateEvent, merged.ByStateEvent) {
				t.Fatalf("%v seed %d: violations by stream %v, merged %v", gen, seed, byStream.ByStateEvent, merged.ByStateEvent)
			}
			for _, top := range []statemachine.TopState{statemachine.TopConnected, statemachine.TopIdle} {
				a, b := byStream.MeanSojourns(top), merged.MeanSojourns(top)
				slices.Sort(a)
				slices.Sort(b)
				if len(a) == 0 || !slices.Equal(a, b) {
					t.Fatalf("%v seed %d: %v sojourn means by stream %v, merged %v", gen, seed, top, a, b)
				}
			}
		}
	}
}

func TestEvaluateSelfIsNearPerfect(t *testing.T) {
	d := groundTruth(t, 2, 100)
	f := Evaluate(d, d)
	if f.EventViolation != 0 || f.StreamViolation != 0 {
		t.Fatal("self-evaluation must have zero violations")
	}
	if f.SojournConnMaxY != 0 || f.FlowLenMaxY != 0 {
		t.Fatal("self-evaluation distances must be zero")
	}
	for _, diff := range f.BreakdownDiff {
		if diff != 0 {
			t.Fatal("self breakdown diff must be zero")
		}
	}
}

func TestEvaluateSeparatesGoodFromBad(t *testing.T) {
	real := groundTruth(t, 3, 150)
	similar := groundTruth(t, 4, 150) // same process, new seed

	// A deliberately broken synthesizer: all streams are the same short
	// pattern with constant interarrivals and a semantic violation.
	bad := &trace.Dataset{Generation: events.Gen4G}
	for i := 0; i < 150; i++ {
		bad.Streams = append(bad.Streams, trace.Stream{
			UEID:   "bad",
			Device: events.Phone,
			Events: []trace.Event{
				{Time: 0, Type: events.ServiceRequest},
				{Time: 1, Type: events.ServiceRequest}, // violation
				{Time: 2, Type: events.S1ConnRel},
			},
		})
	}

	fGood := Evaluate(real, similar)
	fBad := Evaluate(real, bad)
	if fGood.EventViolation != 0 {
		t.Fatal("similar trace must not violate")
	}
	if fBad.EventViolation == 0 || fBad.StreamViolation != 1 {
		t.Fatalf("broken trace must violate: %+v", fBad.EventViolation)
	}
	if fBad.FlowLenMaxY <= fGood.FlowLenMaxY {
		t.Fatalf("flow-length distance must separate: good %v bad %v", fGood.FlowLenMaxY, fBad.FlowLenMaxY)
	}
	if fBad.SojournConnMaxY <= fGood.SojournConnMaxY {
		t.Fatalf("sojourn distance must separate: good %v bad %v", fGood.SojournConnMaxY, fBad.SojournConnMaxY)
	}
	if len(fBad.TopViolations) == 0 {
		t.Fatal("top violations missing")
	}
}

func TestBreakdownDiffSignsAndSum(t *testing.T) {
	real := groundTruth(t, 5, 100)
	synth := groundTruth(t, 6, 100)
	f := Evaluate(real, synth)
	var sum float64
	for _, d := range f.BreakdownDiff {
		sum += d
	}
	// Diffs of two probability vectors must sum to ~0.
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("breakdown diffs sum to %v", sum)
	}
	if f.AvgAbsBreakdownDiff < 0 {
		t.Fatal("negative avg abs diff")
	}
}

func TestMemorizationExactCopyDetected(t *testing.T) {
	train := groundTruth(t, 7, 60)
	// Generated = exact copy → near-100% repetition at any n that fits.
	r, err := Memorization(train, train, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rate() < 0.999 {
		t.Fatalf("self-memorization rate %v, want ≈1", r.Rate())
	}
}

func TestMemorizationFreshTraceLow(t *testing.T) {
	train := groundTruth(t, 8, 60)
	fresh := groundTruth(t, 9, 60)
	r10, err := Memorization(fresh, train, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r10.Rate() > 0.01 {
		t.Fatalf("independent traces should rarely share 10-grams: %v", r10.Rate())
	}
	r20, err := Memorization(fresh, train, 20, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if r20.Rate() != 0 {
		t.Fatalf("20-gram repetition %v, want 0", r20.Rate())
	}
}

func TestMemorizationToleranceMonotone(t *testing.T) {
	train := groundTruth(t, 10, 60)
	gen := groundTruth(t, 11, 60)
	r1, err := Memorization(gen, train, 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Memorization(gen, train, 5, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Rate() < r1.Rate() {
		t.Fatalf("larger tolerance must not reduce repetition: %v vs %v", r1.Rate(), r2.Rate())
	}
}

func TestMemorizationValidation(t *testing.T) {
	d := groundTruth(t, 12, 10)
	if _, err := Memorization(d, d, 0, 0.1); err == nil {
		t.Fatal("n=0 must error")
	}
	if _, err := Memorization(d, d, 5, -0.1); err == nil {
		t.Fatal("negative eps must error")
	}
}

func TestEvaluate5GUsesANRel(t *testing.T) {
	d, err := synthetic.Generate(synthetic.Config{
		Generation: events.Gen5G,
		Seed:       13,
		UEs:        map[events.DeviceType]int{events.Phone: 50},
		Hours:      1,
		StartHour:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := Evaluate(d, d)
	if f.FlowLenRelMaxY != 0 {
		t.Fatal("5G release flow-length self-distance must be zero")
	}
	if len(f.Vocab) != 5 {
		t.Fatalf("5G vocab size %d", len(f.Vocab))
	}
}
