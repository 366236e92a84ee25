package trace

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"

	"cptgpt/internal/events"
)

func sampleDataset() *Dataset {
	return &Dataset{
		Generation: events.Gen4G,
		Streams: []Stream{
			{
				UEID:   "ue-1",
				Device: events.Phone,
				Events: []Event{
					{Time: 0, Type: events.Attach},
					{Time: 10, Type: events.S1ConnRel},
					{Time: 100, Type: events.ServiceRequest},
					{Time: 130, Type: events.S1ConnRel},
				},
			},
			{
				UEID:   "ue-2",
				Device: events.Tablet,
				Events: []Event{
					{Time: 5, Type: events.Attach},
					{Time: 3700, Type: events.TAU},
				},
			},
		},
	}
}

func TestInterarrivals(t *testing.T) {
	d := sampleDataset()
	ia := d.Streams[0].Interarrivals()
	want := []float64{0, 10, 90, 30}
	for i := range want {
		if ia[i] != want[i] {
			t.Fatalf("interarrivals %v, want %v", ia, want)
		}
	}
	pooled := d.Interarrivals()
	// stream 0 contributes {10,90,30}, stream 1 contributes {3695}.
	if len(pooled) != 4 {
		t.Fatalf("pooled interarrivals %v", pooled)
	}
}

func TestEventBreakdownSums(t *testing.T) {
	d := sampleDataset()
	shares, vocab := d.EventBreakdown()
	if len(shares) != len(vocab) {
		t.Fatal("shape mismatch")
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("breakdown sums to %v", sum)
	}
	relIdx := events.VocabIndex(events.Gen4G, events.S1ConnRel)
	if shares[relIdx] != 2.0/6.0 {
		t.Fatalf("S1_CONN_REL share %v, want 2/6", shares[relIdx])
	}
}

func TestFlowLengths(t *testing.T) {
	d := sampleDataset()
	all := d.FlowLengths(nil)
	if all[0] != 4 || all[1] != 2 {
		t.Fatalf("flow lengths %v", all)
	}
	srv := events.ServiceRequest
	per := d.FlowLengths(&srv)
	if per[0] != 1 || per[1] != 0 {
		t.Fatalf("SRV_REQ lengths %v", per)
	}
}

func TestSliceHour(t *testing.T) {
	d := sampleDataset()
	h0 := d.SliceHour(0)
	if h0.NumStreams() != 2 {
		t.Fatalf("hour 0 streams %d", h0.NumStreams())
	}
	// ue-2's second event is at t=3700 (hour 1).
	if h0.Streams[1].Len() != 1 {
		t.Fatalf("ue-2 hour-0 events %d, want 1", h0.Streams[1].Len())
	}
	h1 := d.SliceHour(1)
	if h1.NumStreams() != 1 || h1.Streams[0].Len() != 1 {
		t.Fatalf("hour 1: %+v", h1)
	}
	if h1.Streams[0].UEID == d.Streams[1].UEID {
		t.Fatal("hour slices must rename UEs (treated as different UEs per hour)")
	}
}

func TestFilterDeviceAndSample(t *testing.T) {
	d := sampleDataset()
	phones := d.FilterDevice(events.Phone)
	if phones.NumStreams() != 1 || phones.Streams[0].UEID != "ue-1" {
		t.Fatal("FilterDevice failed")
	}
	s := d.Sample(1)
	if s.NumStreams() != 1 {
		t.Fatal("Sample(1) failed")
	}
	if d.Sample(100).NumStreams() != 2 {
		t.Fatal("oversampling should return all")
	}
	if d.Sample(0).NumStreams() != 0 {
		t.Fatal("Sample(0) should be empty")
	}
}

func TestInitialEventDist(t *testing.T) {
	d := sampleDataset()
	dist := d.InitialEventDist()
	atchIdx := events.VocabIndex(events.Gen4G, events.Attach)
	if dist[atchIdx] != 1 {
		t.Fatalf("initial dist %v: both streams start with ATCH", dist)
	}
}

func TestSummarize(t *testing.T) {
	s := sampleDataset().Summarize()
	if s.Streams != 2 || s.Events != 6 || s.MinLen != 2 || s.MaxLen != 4 {
		t.Fatalf("summary %+v", s)
	}
	if s.ByDevice[events.Phone] != 1 || s.ByDevice[events.Tablet] != 1 {
		t.Fatalf("device counts %+v", s.ByDevice)
	}
	if s.String() == "" {
		t.Fatal("summary string empty")
	}
}

// writeInterleaved writes d's events through a LineWriter into dir/name
// in time order across UEs, as a scenario sink writes them, and returns
// the path.
func writeInterleaved(t *testing.T, dir, name string, d *Dataset) string {
	t.Helper()
	type row struct {
		s *Stream
		e Event
	}
	var rows []row
	for i := range d.Streams {
		for _, e := range d.Streams[i].Events {
			rows = append(rows, row{&d.Streams[i], e})
		}
	}
	slices.SortStableFunc(rows, func(a, b row) int { return cmp.Compare(a.e.Time, b.e.Time) })
	path := filepath.Join(dir, name)
	w, err := createFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lw, err := NewLineWriter(w, fileFormat(path), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := lw.Write(r.e.Time, []byte(r.s.UEID), r.s.Device, r.e.Type); err != nil {
			t.Fatal(err)
		}
	}
	if err := lw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCSVRoundTrip: csv rows interleaved across UEs load back grouped by
// ue_id, streams in order of first appearance.
func TestCSVRoundTrip(t *testing.T) {
	d := sampleDataset()
	got, err := LoadFile(writeInterleaved(t, t.TempDir(), "t.csv", d), events.Gen4G)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualDatasets(t, d, got)
}

// TestJSONLRoundTrip: the same for jsonl event lines.
func TestJSONLRoundTrip(t *testing.T) {
	d := sampleDataset()
	got, err := LoadFile(writeInterleaved(t, t.TempDir(), "t.jsonl", d), events.Gen4G)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != d.Generation {
		t.Fatal("generation lost")
	}
	assertEqualDatasets(t, d, got)
}

func TestFileRoundTripBothFormats(t *testing.T) {
	d := sampleDataset()
	dir := t.TempDir()
	for _, name := range []string{"trace.csv", "trace.jsonl"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, d); err != nil {
			t.Fatal(err)
		}
		got, err := LoadFile(path, events.Gen4G)
		if err != nil {
			t.Fatal(err)
		}
		assertEqualDatasets(t, d, got)
	}
}

// loadString loads content as a file called name.
func loadString(t *testing.T, name, content string, gen events.Generation) (*Dataset, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadFile(path, gen)
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	hdr := `{"format":"cptgpt-trace/1","generation":"4G","streams":-1}` + "\n"
	for _, bad := range []string{
		`{"format":"other/9"}`,
		`not json`,
		`[1, 2]`,
		hdr + `{"ue_id":"u","events":[{"t":"x"}]}`,
		hdr + `{"ue_id":"u","device_type":7,"events":[{"t":1,"e":0}]}`,
		`{"t":1,"ue_id":"u","device_type":"phone","event_type":"NOPE"}`,
		`{"t":1,"ue_id":"u","device_type":"fridge","event_type":"ATCH"}`,
		`{"t":1,"ue_id":"u","device_type":"phone","event_type":"ATCH"}` + "\n" + `{"t":2,"ue_id":"u","device_type":"tablet","event_type":"TAU"}`,
		`{"t":1,"ue_id":"u","device_type":"phone","event_type":"ATCH"}` + "\n" + `{"t":`,
	} {
		if _, err := loadString(t, "t.jsonl", bad, events.Gen4G); err == nil {
			t.Errorf("%q loaded", bad)
		}
	}
}

func TestReadCSVRejectsBadRows(t *testing.T) {
	for _, bad := range []string{
		"u1,phone,notanumber,ATCH\n",
		"u1,phone,1.5,NOPE\n",
		"u1,fridge,1.5,ATCH\n",
		"u1,phone,NaN,ATCH\n",
		"u1,phone,-Inf,ATCH\n",
		"u1,phone,1.5\n",
		"u1,phone,1,ATCH\nu1,tablet,2,TAU\n",
		"\"u\r\",phone,1,ATCH\n",
	} {
		if _, err := loadString(t, "t.csv", csvHeader+"\n"+bad, events.Gen4G); err == nil {
			t.Errorf("%q loaded", bad)
		}
	}
	if _, err := loadString(t, "t.csv", "ue,device,timestamp,event\nu1,phone,1,ATCH\n", events.Gen4G); err == nil {
		t.Error("a foreign header loaded")
	}
}

func assertEqualDatasets(t *testing.T, want, got *Dataset) {
	t.Helper()
	if got.NumStreams() != want.NumStreams() {
		t.Fatalf("streams %d, want %d", got.NumStreams(), want.NumStreams())
	}
	for i := range want.Streams {
		ws, gs := &want.Streams[i], &got.Streams[i]
		if ws.UEID != gs.UEID || ws.Device != gs.Device || len(ws.Events) != len(gs.Events) {
			t.Fatalf("stream %d header mismatch", i)
		}
		for j := range ws.Events {
			if ws.Events[j] != gs.Events[j] {
				t.Fatalf("stream %d event %d: %v vs %v", i, j, ws.Events[j], gs.Events[j])
			}
		}
	}
}

// Property: SortByTime yields non-decreasing timestamps and preserves the
// event multiset.
func TestSortByTimeProperty(t *testing.T) {
	f := func(times []float64) bool {
		s := Stream{UEID: "u", Device: events.Phone}
		counts := map[float64]int{}
		for _, x := range times {
			if math.IsNaN(x) {
				x = 0
			}
			s.Events = append(s.Events, Event{Time: x, Type: events.TAU})
			counts[x]++
		}
		s.SortByTime()
		for i := 1; i < len(s.Events); i++ {
			if s.Events[i].Time < s.Events[i-1].Time {
				return false
			}
		}
		for _, e := range s.Events {
			counts[e.Time]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Events with equal timestamps keep their relative order: past the
// insertion-sort cutoff of Go's sorts, so an unstable sort would show.
func TestSortByTimeStable(t *testing.T) {
	types := []events.Type{events.Attach, events.ServiceRequest, events.Handover, events.TAU, events.S1ConnRel, events.Detach}
	var s Stream
	var want []Event
	buckets := make([][]Event, 4)
	for i := 0; i < 96; i++ {
		e := Event{Time: float64((i * 7) % 4), Type: types[(i/4)%len(types)]}
		s.Events = append(s.Events, e)
		buckets[int(e.Time)] = append(buckets[int(e.Time)], e)
	}
	for _, b := range buckets {
		want = append(want, b...)
	}
	s.SortByTime()
	if !slices.Equal(s.Events, want) {
		t.Fatalf("sorted %v, want %v", s.Events, want)
	}
}

// UEID builds the bytes of the fmt verb the generators used to format ids
// with, for every device, with and without a prefix, on both sides of the
// six-digit padding.
func TestUEIDMatchesSprintf(t *testing.T) {
	for _, dev := range append(events.DeviceTypes(), events.DeviceType(events.NumDeviceTypes)) {
		for _, prefix := range []string{"", "gen-", "smm-"} {
			for _, idx := range []int{0, 7, 99_999, 999_999, 1_000_000, 12_345_678} {
				if got, want := UEID(prefix, dev, idx), fmt.Sprintf("%s%s-%06d", prefix, dev, idx); got != want {
					t.Errorf("UEID(%q, %v, %d) = %q, want %q", prefix, dev, idx, got, want)
				}
			}
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	d := sampleDataset()
	c := d.Streams[0].Clone()
	c.Events[0].Time = 999
	if d.Streams[0].Events[0].Time == 999 {
		t.Fatal("Clone must not share event storage")
	}
}

// TestArrivalsOrder pins the merged order the MCN simulator and the replay
// client consume a dataset in: by time, and on equal timestamps in dataset
// order — stream by stream, a stream's own events in the order it holds
// them — with the stream's index as the UE key.
func TestArrivalsOrder(t *testing.T) {
	d := &Dataset{Generation: events.Gen4G, Streams: []Stream{
		{UEID: "a", Events: []Event{{Time: 5, Type: events.Attach}, {Time: 5, Type: events.TAU}, {Time: 9, Type: events.Detach}}},
		{UEID: "b"},
		{UEID: "c", Events: []Event{{Time: 0, Type: events.Attach}, {Time: 5, Type: events.Handover}, {Time: 7, Type: events.S1ConnRel}}},
		{UEID: "d", Events: []Event{{Time: 5, Type: events.ServiceRequest}, {Time: 3, Type: events.Attach}}}, // not time-sorted
	}}
	want := []Arrival{
		{0, 2, events.Attach},
		{3, 3, events.Attach},
		{5, 0, events.Attach}, {5, 0, events.TAU}, {5, 2, events.Handover}, {5, 3, events.ServiceRequest},
		{7, 2, events.S1ConnRel},
		{9, 0, events.Detach},
	}
	src := d.Arrivals()
	for i, w := range want {
		a, ok, err := src.NextArrival()
		if err != nil || !ok || a != w {
			t.Fatalf("arrival %d = %+v ok=%v err=%v, want %+v", i, a, ok, err, w)
		}
	}
	for i := 0; i < 2; i++ { // exhaustion is sticky
		if a, ok, err := src.NextArrival(); ok || err != nil {
			t.Fatalf("after the last arrival: %+v ok=%v err=%v", a, ok, err)
		}
	}
	if _, ok, _ := (&Dataset{}).Arrivals().NextArrival(); ok {
		t.Fatal("an empty dataset yielded an arrival")
	}
}
