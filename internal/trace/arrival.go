package trace

import (
	"sort"

	"cptgpt/internal/events"
)

// Arrival is one element of a merged control-plane event sequence, as a
// consumer (the MCN simulator, the replay drivers) sees it: a timestamp, the
// UE it belongs to (any stable 64-bit key) and the event type.
type Arrival struct {
	Time float64
	UE   uint64
	Type events.Type
}

// ArrivalSource is the consumers' cursor over a time-ordered arrival
// sequence: one arrival per call, ok=false once the sequence is exhausted.
// Consumers never buffer the sequence, so sources may be arbitrarily long.
//
// A source that paces itself to the wall clock blocks inside NextArrival. A
// consumer that holds written-but-unflushed output must not let it sit
// through such a wait: the source offers OnIdle(func(until time.Time))
// (scenario.Pacer does, and the stages between it and the consumer forward
// it), and calls the registered function on the consumer's goroutine before
// every wait, until being the instant the wait ends. The function flushes,
// may spend the wait on the consumer's own business (the closed-loop driver
// retires ACKs), and returns by until.
type ArrivalSource interface {
	NextArrival() (a Arrival, ok bool, err error)
}

// Arrivals merges the dataset's streams into one time-ordered sequence, the
// UE key being the stream's index: exactly the load a real core would see
// from the UE population. Equal timestamps keep dataset order (stream by
// stream, events in stream order).
func (d *Dataset) Arrivals() ArrivalSource {
	src := &datasetArrivals{}
	for ue := range d.Streams {
		for _, e := range d.Streams[ue].Events {
			src.arr = append(src.arr, Arrival{Time: e.Time, UE: uint64(ue), Type: e.Type})
		}
	}
	sort.SliceStable(src.arr, func(i, j int) bool { return src.arr[i].Time < src.arr[j].Time })
	return src
}

type datasetArrivals struct {
	arr []Arrival
	i   int
}

func (s *datasetArrivals) NextArrival() (Arrival, bool, error) {
	if s.i >= len(s.arr) {
		return Arrival{}, false, nil
	}
	s.i++
	return s.arr[s.i-1], true, nil
}
