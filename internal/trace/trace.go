// Package trace defines the control-plane traffic dataset model of §3.1 —
// a dataset is a set of streams, one per UE, where each stream carries a UE
// identifier, a device type and a time-ordered sequence of (timestamp,
// event) samples — together with the dataset manipulations the evaluation
// needs (hour slicing, device filtering, length capping) and the one trace
// file format: event lines, csv or jsonl, written by LineWriter (for
// SaveFile and the scenario engine's file sinks alike) and read back by
// LoadFile, which groups them by UE.
package trace

import (
	"fmt"
	"slices"
	"strconv"

	"cptgpt/internal/events"
)

// Event is a single control-plane sample: an event type and the absolute
// time (seconds from the trace origin) at which it occurred.
type Event struct {
	Time float64     `json:"t"`
	Type events.Type `json:"e"`
}

// Stream is the sequence of control events generated by a single UE. Its
// JSON form is a stream line of the legacy cptgpt-trace/1 format, which
// LoadFile still reads.
type Stream struct {
	UEID   string            `json:"ue_id"`
	Device events.DeviceType `json:"device_type"`
	Events []Event           `json:"events"`
}

// UEID returns the id the generators give stream idx (≥ 0) of device dev:
// prefix, the device name, '-', and idx zero-padded to six digits — the
// bytes of fmt.Sprintf("%s%s-%06d", prefix, dev, idx), built by appends.
func UEID(prefix string, dev events.DeviceType, idx int) string {
	var b [48]byte
	id := append(b[:0], prefix...)
	id = append(id, dev.String()...)
	id = append(id, '-')
	for w := 100000; w > 1 && idx < w; w /= 10 {
		id = append(id, '0')
	}
	return string(strconv.AppendInt(id, int64(idx), 10))
}

// Len returns the number of events (the stream's flow length).
func (s *Stream) Len() int { return len(s.Events) }

// Types returns the event-type sequence of the stream.
func (s *Stream) Types() []events.Type {
	out := make([]events.Type, len(s.Events))
	for i, e := range s.Events {
		out[i] = e.Type
	}
	return out
}

// Times returns the timestamp sequence of the stream.
func (s *Stream) Times() []float64 {
	out := make([]float64, len(s.Events))
	for i, e := range s.Events {
		out[i] = e.Time
	}
	return out
}

// Interarrivals returns the stream's interarrival sequence: element i is
// Events[i].Time - Events[i-1].Time for i ≥ 1, and element 0 is 0 by the
// paper's convention (the first token of every stream has interarrival 0).
func (s *Stream) Interarrivals() []float64 {
	out := make([]float64, len(s.Events))
	for i := 1; i < len(s.Events); i++ {
		out[i] = s.Events[i].Time - s.Events[i-1].Time
	}
	return out
}

// CountType returns how many events of type t the stream contains.
func (s *Stream) CountType(t events.Type) int {
	var n int
	for _, e := range s.Events {
		if e.Type == t {
			n++
		}
	}
	return n
}

// SortByTime orders the stream's events by ascending timestamp (stable).
// The comparator is Time's < made three-way, so times that compare
// neither way (NaN) stay where the stable sort leaves them.
func (s *Stream) SortByTime() {
	slices.SortStableFunc(s.Events, func(a, b Event) int {
		switch {
		case a.Time < b.Time:
			return -1
		case b.Time < a.Time:
			return 1
		}
		return 0
	})
}

// Clone returns a deep copy of the stream.
func (s *Stream) Clone() Stream {
	evs := make([]Event, len(s.Events))
	copy(evs, s.Events)
	return Stream{UEID: s.UEID, Device: s.Device, Events: evs}
}

// Dataset is a control-plane traffic dataset D = {S1, …, Sn}.
type Dataset struct {
	Generation events.Generation `json:"generation"`
	Streams    []Stream          `json:"streams"`
}

// NumStreams returns the number of streams (UEs).
func (d *Dataset) NumStreams() int { return len(d.Streams) }

// NumEvents returns the total event count across all streams.
func (d *Dataset) NumEvents() int {
	var n int
	for i := range d.Streams {
		n += len(d.Streams[i].Events)
	}
	return n
}

// FilterDevice returns a shallow dataset containing only streams of the
// given device type. Stream event slices are shared with the receiver.
func (d *Dataset) FilterDevice(dev events.DeviceType) *Dataset {
	out := &Dataset{Generation: d.Generation}
	for i := range d.Streams {
		if d.Streams[i].Device == dev {
			out.Streams = append(out.Streams, d.Streams[i])
		}
	}
	return out
}

// SliceHour returns a dataset whose streams contain only the events with
// timestamps in [3600·hour, 3600·(hour+1)). Streams left empty are dropped.
// Mirroring the paper's training setup, the same UE observed in different
// hours is treated as a different UE (the UEID gains an "@h<hour>" suffix).
func (d *Dataset) SliceHour(hour int) *Dataset {
	lo := 3600 * float64(hour)
	hi := lo + 3600
	out := &Dataset{Generation: d.Generation}
	for i := range d.Streams {
		s := &d.Streams[i]
		var evs []Event
		for _, e := range s.Events {
			if e.Time >= lo && e.Time < hi {
				evs = append(evs, e)
			}
		}
		if len(evs) == 0 {
			continue
		}
		out.Streams = append(out.Streams, Stream{
			UEID:   fmt.Sprintf("%s@h%d", s.UEID, hour),
			Device: s.Device,
			Events: evs,
		})
	}
	return out
}

// Sample returns a dataset of up to n streams chosen by a deterministic
// stride over the stream order (stable across runs for a fixed input).
func (d *Dataset) Sample(n int) *Dataset {
	out := &Dataset{Generation: d.Generation}
	if n <= 0 || len(d.Streams) == 0 {
		return out
	}
	if n >= len(d.Streams) {
		out.Streams = append(out.Streams, d.Streams...)
		return out
	}
	stride := float64(len(d.Streams)) / float64(n)
	for i := 0; i < n; i++ {
		out.Streams = append(out.Streams, d.Streams[int(float64(i)*stride)])
	}
	return out
}

// EventBreakdown returns, for each event type in the generation's
// vocabulary, its share of all events in the dataset (fractions in [0,1],
// in vocabulary order). The second return value carries the vocabulary so
// callers can label rows without re-deriving it.
func (d *Dataset) EventBreakdown() ([]float64, []events.Type) {
	vocab := events.Vocabulary(d.Generation)
	counts := make([]float64, len(vocab))
	var total float64
	for i := range d.Streams {
		for _, e := range d.Streams[i].Events {
			if idx := events.VocabIndex(d.Generation, e.Type); idx >= 0 {
				counts[idx]++
				total++
			}
		}
	}
	if total > 0 {
		for i := range counts {
			counts[i] /= total
		}
	}
	return counts, vocab
}

// FlowLengths returns the per-stream event counts; when t is non-nil only
// events of type *t are counted (the paper's SRV_REQ / S1_CONN_REL flow
// length variants in Table 6).
func (d *Dataset) FlowLengths(t *events.Type) []float64 {
	out := make([]float64, 0, len(d.Streams))
	for i := range d.Streams {
		if t == nil {
			out = append(out, float64(len(d.Streams[i].Events)))
			continue
		}
		out = append(out, float64(d.Streams[i].CountType(*t)))
	}
	return out
}

// Interarrivals pools the interarrival times of all streams, skipping each
// stream's leading zero.
func (d *Dataset) Interarrivals() []float64 {
	var out []float64
	for i := range d.Streams {
		ia := d.Streams[i].Interarrivals()
		if len(ia) > 1 {
			out = append(out, ia[1:]...)
		}
	}
	return out
}

// InitialEventDist returns the distribution of the first event type across
// streams, in vocabulary order — the bootstrap distribution CPT-GPT's
// inference samples from (§4.5).
func (d *Dataset) InitialEventDist() []float64 {
	vocab := events.Vocabulary(d.Generation)
	counts := make([]float64, len(vocab))
	var total float64
	for i := range d.Streams {
		if len(d.Streams[i].Events) == 0 {
			continue
		}
		if idx := events.VocabIndex(d.Generation, d.Streams[i].Events[0].Type); idx >= 0 {
			counts[idx]++
			total++
		}
	}
	if total > 0 {
		for i := range counts {
			counts[i] /= total
		}
	}
	return counts
}

// Summary holds headline statistics of a dataset.
type Summary struct {
	Streams      int
	Events       int
	MinLen       int
	MaxLen       int
	MeanLen      float64
	MeanInterarr float64
	ByDevice     map[events.DeviceType]int
}

// Summarize computes a Summary of the dataset.
func (d *Dataset) Summarize() Summary {
	s := Summary{ByDevice: make(map[events.DeviceType]int)}
	s.Streams = len(d.Streams)
	var iaSum float64
	var iaN int
	for i := range d.Streams {
		st := &d.Streams[i]
		n := len(st.Events)
		s.Events += n
		if i == 0 || n < s.MinLen {
			s.MinLen = n
		}
		if n > s.MaxLen {
			s.MaxLen = n
		}
		s.ByDevice[st.Device]++
		for _, ia := range st.Interarrivals()[min(1, n):] {
			iaSum += ia
			iaN++
		}
	}
	if s.Streams > 0 {
		s.MeanLen = float64(s.Events) / float64(s.Streams)
	}
	if iaN > 0 {
		s.MeanInterarr = iaSum / float64(iaN)
	}
	return s
}

// String renders the summary in a single line.
func (s Summary) String() string {
	return fmt.Sprintf("streams=%d events=%d len[min=%d mean=%.1f max=%d] mean_interarrival=%.2fs phones=%d cars=%d tablets=%d",
		s.Streams, s.Events, s.MinLen, s.MeanLen, s.MaxLen, s.MeanInterarr,
		s.ByDevice[events.Phone], s.ByDevice[events.ConnectedCar], s.ByDevice[events.Tablet])
}
