package scenario

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/trace"
)

// randomChunk builds n events the way spillChunks assembles a chunk: UEs
// ascending, up to maxPerUE events each with Seq counting up, and times
// drawn from draw put in non-decreasing order within a UE.
func randomChunk(rng *rand.Rand, n, maxPerUE int, draw func() float64) []Event {
	evs := make([]Event, 0, n)
	for ue := uint64(0); len(evs) < n; ue++ {
		times := make([]float64, min(1+rng.Intn(maxPerUE), n-len(evs)))
		for i := range times {
			times[i] = draw()
		}
		sort.Float64s(times)
		for seq, t := range times {
			evs = append(evs, Event{Time: t, UE: ue, Seq: uint32(seq),
				Device: events.DeviceType(ue % 3), Type: events.Type(rng.Intn(5))})
		}
	}
	return evs
}

// sortedByOrder applies a chunkSorter permutation.
func sortedByOrder(evs []Event, order []sortKey) []Event {
	out := make([]Event, len(order))
	for i, k := range order {
		out[i] = evs[k.idx]
	}
	return out
}

// sameEvents also compares event times by bit pattern, so a -0 that became +0 (or
// the reverse) counts as a difference.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] || math.Float64bits(a[i].Time) != math.Float64bits(b[i].Time) {
			return false
		}
	}
	return true
}

// fuzzTime draws one raw event time of the given flavour. Flavours 0–3 stay
// inside the clamp; 4 and up also produce what applyOps must drop.
func fuzzTime(rng *rand.Rand, flavour uint8) float64 {
	switch flavour % 6 {
	case 0: // an hour of uniform times
		return rng.Float64() * 3600
	case 1: // a handful of values: duplicates within and across UEs
		return float64(rng.Intn(4)) * 0.25
	case 2: // both zeros and subnormals
		switch rng.Intn(4) {
		case 0:
			return math.Copysign(0, -1)
		case 1:
			return 0
		default:
			return math.Float64frombits(uint64(rng.Intn(1 << 12)))
		}
	case 3: // every exponent byte: any non-negative bit pattern
		return math.Float64frombits(rng.Uint64() >> 1)
	case 4: // any bit pattern at all: negatives, infinities, NaNs
		return math.Float64frombits(rng.Uint64())
	default:
		return fuzzTime(rng, uint8(rng.Intn(5)))
	}
}

// FuzzChunkSort checks the chunk sort, and the contract it rests on, against
// references kept here: random unordered UE streams go through applyOps
// (which must hand back exactly clamp-then-sort.SliceStable, every time in
// [0, horizon) and non-decreasing), are assembled as spillChunks assembles a
// chunk, and chunkSorter.order must then equal sort.SliceStable by
// Event.less.
func FuzzChunkSort(f *testing.F) {
	for _, n := range []uint16{0, 1, 2, 255, 256, 257, 20_000} {
		for flavour := uint8(0); flavour < 6; flavour++ {
			f.Add(int64(n)*31+int64(flavour), n, flavour)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, flavour uint8) {
		rng := rand.New(rand.NewSource(seed))
		horizon := 3600.0
		if flavour%6 >= 3 {
			horizon = math.MaxFloat64
		}
		var evs []Event
		var scratch opScratch
		var sorter chunkSorter
		for ue := uint64(0); len(evs) < int(n); ue++ {
			s := trace.Stream{Device: events.DeviceType(ue % 3)}
			for i := rng.Intn(40); i > 0; i-- {
				s.Events = append(s.Events, trace.Event{Time: fuzzTime(rng, flavour), Type: events.Type(rng.Intn(5))})
			}
			var want []trace.Event
			for _, e := range s.Events {
				if e.Time >= 0 && e.Time < horizon {
					want = append(want, e)
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].Time < want[j].Time })

			applyOps(nil, &s, ue, horizon, &scratch)
			if len(s.Events) != len(want) {
				t.Fatalf("ue %d: applyOps kept %d events, reference %d", ue, len(s.Events), len(want))
			}
			for i, e := range s.Events {
				if e != want[i] || math.Float64bits(e.Time) != math.Float64bits(want[i].Time) {
					t.Fatalf("ue %d event %d: applyOps gave %+v, reference %+v", ue, i, e, want[i])
				}
				if !(e.Time >= 0 && e.Time < horizon) || (i > 0 && e.Time < s.Events[i-1].Time) {
					t.Fatalf("ue %d event %d: time %v breaks the applyOps contract", ue, i, e.Time)
				}
				evs = append(evs, Event{Time: e.Time, UE: ue, Seq: uint32(i), Device: s.Device, Type: e.Type})
			}
		}

		want := append([]Event(nil), evs...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].less(want[j]) })
		order := sorter.order(evs)
		if got := sortedByOrder(evs, order); !sameEvents(got, want) {
			t.Fatalf("chunk sort of %d events differs from sort.SliceStable by Event.less", len(evs))
		}
		// A sorter that has grown is reused on a smaller chunk.
		half := evs[:len(evs)/2]
		want = append(want[:0], half...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].less(want[j]) })
		if got := sortedByOrder(half, sorter.order(half)); !sameEvents(got, want) {
			t.Fatalf("reused sorter on %d events differs from the reference", len(half))
		}
	})
}
