package mcn

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"cptgpt/internal/events"
	"cptgpt/internal/synthetic"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/trace"
)

func workload(t *testing.T, ues int) *trace.Dataset {
	t.Helper()
	d, err := synthetic.Generate(synthetic.Config{
		Generation: events.Gen4G,
		Seed:       1,
		UEs:        map[events.DeviceType]int{events.Phone: ues},
		Hours:      1,
		StartHour:  12,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.BaseInstances = 0 },
		func(c *Config) { c.TargetUtil = 1.5 },
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.DefaultServiceCost = 0 },
		func(c *Config) { c.MaxInstances = 0 },
	}
	for i, mut := range bad {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRunCleanWorkload(t *testing.T) {
	d := workload(t, 150)
	rep, err := Run(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != d.NumEvents() {
		t.Fatalf("processed %d of %d events", rep.Events, d.NumEvents())
	}
	if rep.Rejected != 0 {
		t.Fatalf("ground truth rejected %d events; must be 0", rep.Rejected)
	}
	if rep.MeanLatencySec <= 0 || rep.P99LatencySec < rep.P95LatencySec {
		t.Fatalf("latency accounting broken: %+v", rep)
	}
	if rep.PeakConnectedUEs <= 0 {
		t.Fatal("peak connected UEs must be positive")
	}
	if len(rep.Windows) == 0 {
		t.Fatal("window history missing")
	}

	// The whole report, bit for bit, as the commit before the simulator
	// moved onto telemetry.Histogram printed it (recorded there) — from the
	// private histogram and from the caller's LatencySink alike.
	const want = "11eac3810cc502cb"
	cfg := DefaultConfig()
	cfg.LatencySink = telemetry.NewHistogram(telemetry.LatencyBuckets)
	viaSink, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Report{rep, viaSink} {
		h := fnv.New64a()
		fmt.Fprintf(h, "%+v", *r)
		if got := fmt.Sprintf("%016x", h.Sum64()); got != want {
			t.Fatalf("report digest %s, want %s: %+v", got, want, *r)
		}
	}
	if got := cfg.LatencySink.Count(); got != int64(rep.Events) {
		t.Fatalf("LatencySink holds %d samples, want one per served event (%d)", got, rep.Events)
	}
}

func TestRejectsInvalidEvents(t *testing.T) {
	d := &trace.Dataset{Generation: events.Gen4G, Streams: []trace.Stream{{
		UEID: "u", Device: events.Phone,
		Events: []trace.Event{
			{Time: 0, Type: events.ServiceRequest},
			{Time: 1, Type: events.ServiceRequest}, // invalid while connected
			{Time: 2, Type: events.S1ConnRel},
		},
	}}}
	rep, err := Run(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != 1 {
		t.Fatalf("rejected %d, want 1", rep.Rejected)
	}
}

func TestAutoscalerScalesUp(t *testing.T) {
	// A burst far above one instance's capacity must raise the pool.
	d := &trace.Dataset{Generation: events.Gen4G}
	for u := 0; u < 200; u++ {
		s := trace.Stream{UEID: "u", Device: events.Phone}
		base := float64(u) * 0.01
		s.Events = append(s.Events,
			trace.Event{Time: base, Type: events.Attach},
			trace.Event{Time: base + 1, Type: events.S1ConnRel},
			trace.Event{Time: base + 2, Type: events.ServiceRequest},
			trace.Event{Time: base + 3, Type: events.S1ConnRel},
		)
		d.Streams = append(d.Streams, s)
	}
	cfg := DefaultConfig()
	cfg.BaseInstances = 1
	cfg.Window = 1
	rep, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxInstancesUsed <= 1 {
		t.Fatalf("autoscaler never scaled: max %d", rep.MaxInstancesUsed)
	}
}

func TestNoAutoscaleKeepsPoolFixed(t *testing.T) {
	d := workload(t, 60)
	cfg := DefaultConfig()
	cfg.AutoScale = false
	cfg.BaseInstances = 3
	rep, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalInstances != 3 || rep.MaxInstancesUsed > 3 {
		t.Fatalf("pool changed without autoscaling: %+v", rep)
	}
}

func TestEmptyDataset(t *testing.T) {
	rep, err := Run(&trace.Dataset{Generation: events.Gen4G}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events != 0 {
		t.Fatal("empty dataset must process nothing")
	}
}

func TestMoreInstancesReduceLatency(t *testing.T) {
	d := workload(t, 200)
	cfg1 := DefaultConfig()
	cfg1.AutoScale = false
	cfg1.BaseInstances = 1
	rep1, err := Run(d, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	cfg8 := cfg1
	cfg8.BaseInstances = 8
	rep8, err := Run(d, cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if rep8.P99LatencySec > rep1.P99LatencySec {
		t.Fatalf("8 instances slower than 1: %v vs %v", rep8.P99LatencySec, rep1.P99LatencySec)
	}
}

// sliceSource feeds a fixed arrival slice as a trace.ArrivalSource.
type sliceSource struct {
	arr []trace.Arrival
	i   int
}

func (s *sliceSource) NextArrival() (trace.Arrival, bool, error) {
	if s.i >= len(s.arr) {
		return trace.Arrival{}, false, nil
	}
	a := s.arr[s.i]
	s.i++
	return a, true, nil
}

// TestRunStreamMatchesRun feeds RunStream an arrival sequence merged
// independently of Dataset.Arrivals (time-keyed stable sort built by hand),
// so a bug in the dataset merge cannot cancel out.
func TestRunStreamMatchesRun(t *testing.T) {
	d := workload(t, 120)
	want, err := Run(d, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var arr []trace.Arrival
	for ue := range d.Streams {
		for _, e := range d.Streams[ue].Events {
			arr = append(arr, trace.Arrival{Time: e.Time, UE: uint64(ue), Type: e.Type})
		}
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].Time < arr[j].Time })
	got, err := RunStream(d.Generation, src(arr), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if want.Events != got.Events || want.Rejected != got.Rejected ||
		want.MeanLatencySec != got.MeanLatencySec || want.MaxInstancesUsed != got.MaxInstancesUsed {
		t.Fatalf("RunStream diverged from Run:\n got %+v\nwant %+v", got, want)
	}
}

// Latency accounting reference: widely spaced arrivals on an idle server
// each cost exactly their service time, so the mean is exact and the
// histogram percentiles land within one log bucket (≤ 10^(1/16) ≈ 15.5%)
// above the true value.
func TestLatencyAccountingExact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AutoScale = false
	var arr []trace.Arrival
	for i := 0; i < 100; i++ {
		base := float64(i) * 10
		arr = append(arr,
			trace.Arrival{Time: base, UE: uint64(i), Type: events.Attach},
			trace.Arrival{Time: base + 5, UE: uint64(i), Type: events.S1ConnRel})
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].Time < arr[j].Time })
	rep, err := RunStream(events.Gen4G, src(arr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantMean := (cfg.ServiceCost[events.Attach] + cfg.ServiceCost[events.S1ConnRel]) / 2
	if math.Abs(rep.MeanLatencySec-wantMean) > 1e-12 {
		t.Fatalf("mean latency %v, want exactly %v", rep.MeanLatencySec, wantMean)
	}
	// Every latency is one of {0.003, 0.020}; p95/p99 must bracket the
	// larger cost from above within one bucket.
	bucket := math.Pow(10, 1.0/16)
	for _, q := range []float64{rep.P95LatencySec, rep.P99LatencySec} {
		if q < 0.020 || q > 0.020*bucket {
			t.Fatalf("quantile %v outside [0.020, %v]", q, 0.020*bucket)
		}
	}
}

func TestRunStreamRejectsOutOfOrder(t *testing.T) {
	src := &sliceSource{arr: []trace.Arrival{
		{Time: 10, UE: 0, Type: events.Attach},
		{Time: 5, UE: 1, Type: events.Attach},
	}}
	if _, err := RunStream(events.Gen4G, src, DefaultConfig()); err == nil {
		t.Fatal("out-of-order arrivals must error")
	}
}

// Window-boundary resizing: a hot first window followed by silence must
// scale the pool up at the boundary and back down across the empty windows,
// with every resize recorded at a window edge.
func TestAutoscalerWindowBoundaryResizing(t *testing.T) {
	var arr []trace.Arrival
	// 2000 attach/rel pairs in [0, 10): far above one instance's capacity.
	for i := 0; i < 2000; i++ {
		tt := float64(i) * 0.005
		arr = append(arr,
			trace.Arrival{Time: tt, UE: uint64(i), Type: events.Attach},
			trace.Arrival{Time: tt + 0.002, UE: uint64(i), Type: events.S1ConnRel})
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].Time < arr[j].Time })
	// One straggler far later forces several idle windows to close.
	arr = append(arr, trace.Arrival{Time: 100, UE: 999999, Type: events.Attach})

	cfg := DefaultConfig()
	cfg.BaseInstances = 1
	cfg.Window = 10
	rep, err := RunStream(events.Gen4G, src(arr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxInstancesUsed <= 1 {
		t.Fatalf("burst did not scale the pool: %+v", rep)
	}
	// The pool must have shrunk back to BaseInstances across the idle
	// windows before the straggler.
	if rep.FinalInstances != cfg.BaseInstances {
		t.Fatalf("pool did not shrink during idle windows: final %d", rep.FinalInstances)
	}
	// Instance counts only change window-to-window, and window starts are
	// spaced exactly one Window apart.
	for i := 1; i < len(rep.Windows); i++ {
		if got := rep.Windows[i].Start - rep.Windows[i-1].Start; math.Abs(got-cfg.Window) > 1e-9 {
			t.Fatalf("window %d starts %.3f after its predecessor, want %.1f", i, got, cfg.Window)
		}
	}
}

// TargetUtil near its (0,1) edges: a near-zero set-point means any load
// overshoots the target and the pool slams to MaxInstances; a near-one
// set-point tolerates the same load with (almost) no scaling.
func TestAutoscalerTargetUtilEdges(t *testing.T) {
	var arr []trace.Arrival
	for i := 0; i < 500; i++ {
		tt := float64(i) * 0.05
		arr = append(arr,
			trace.Arrival{Time: tt, UE: uint64(i), Type: events.Attach},
			trace.Arrival{Time: tt + 0.01, UE: uint64(i), Type: events.S1ConnRel})
	}
	sort.SliceStable(arr, func(i, j int) bool { return arr[i].Time < arr[j].Time })

	cfg := DefaultConfig()
	cfg.BaseInstances = 1
	cfg.Window = 5

	for _, bad := range []float64{0, 1, -0.1, 1.1} {
		c := cfg
		c.TargetUtil = bad
		if err := c.Validate(); err == nil {
			t.Fatalf("TargetUtil %v must be rejected", bad)
		}
	}

	low := cfg
	low.TargetUtil = 0.001
	repLow, err := RunStream(events.Gen4G, src(arr), low)
	if err != nil {
		t.Fatal(err)
	}
	if repLow.MaxInstancesUsed != cfg.MaxInstances {
		t.Fatalf("TargetUtil≈0 must drive the pool to MaxInstances, got %d", repLow.MaxInstancesUsed)
	}

	high := cfg
	high.TargetUtil = 0.999
	repHigh, err := RunStream(events.Gen4G, src(arr), high)
	if err != nil {
		t.Fatal(err)
	}
	if repHigh.MaxInstancesUsed >= repLow.MaxInstancesUsed {
		t.Fatalf("TargetUtil≈1 scaled as hard as ≈0: %d vs %d", repHigh.MaxInstancesUsed, repLow.MaxInstancesUsed)
	}
}

// Rejection accounting over a merged, time-ordered multi-UE sequence: UE
// state must be tracked per UE key, not per position, so interleaving must
// not change which events are rejected.
func TestRejectionAccountingMergedInput(t *testing.T) {
	// UE 1 is valid throughout; UE 2 double-sends SRV_REQ while connected
	// (1 rejection) and detaches from idle (valid).
	arr := []trace.Arrival{
		{Time: 0, UE: 1, Type: events.Attach},
		{Time: 0.5, UE: 2, Type: events.Attach},
		{Time: 1, UE: 1, Type: events.S1ConnRel},
		{Time: 1.5, UE: 2, Type: events.S1ConnRel},
		{Time: 2, UE: 1, Type: events.ServiceRequest},
		{Time: 2.5, UE: 2, Type: events.ServiceRequest},
		{Time: 2.6, UE: 2, Type: events.ServiceRequest}, // invalid: already connected
		{Time: 3, UE: 1, Type: events.S1ConnRel},
		{Time: 3.5, UE: 2, Type: events.S1ConnRel},
		{Time: 4, UE: 2, Type: events.Detach},
	}
	rep, err := RunStream(events.Gen4G, src(arr), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rejected != 1 {
		t.Fatalf("rejected %d, want exactly 1", rep.Rejected)
	}
	if rep.Events != len(arr) {
		t.Fatalf("processed %d arrivals, want %d", rep.Events, len(arr))
	}
	if rep.UEs != 2 {
		t.Fatalf("saw %d UEs, want 2", rep.UEs)
	}
	if rep.PeakConnectedUEs != 2 {
		t.Fatalf("peak connected %d, want 2", rep.PeakConnectedUEs)
	}
}

func src(arr []trace.Arrival) *sliceSource { return &sliceSource{arr: arr} }

// TestLiveStatsMatchFinalReport runs the simulator with live publication
// enabled and checks (a) that the live counters end exactly on the report's
// numbers and (b) that a concurrent reader observes monotone progress while
// the run is in flight.
func TestLiveStatsMatchFinalReport(t *testing.T) {
	d := workload(t, 200)
	cfg := DefaultConfig()
	live := &LiveStats{}
	cfg.Live = live

	progress := make(chan int64, 1)
	src := d.Arrivals()
	// Wrap the source so the reader goroutine gets a window to observe a
	// mid-run value: sample the live counter from inside the stream.
	probe := &probeSource{src: src, at: int64(d.NumEvents() / 2), live: live, out: progress}
	rep, err := RunStream(d.Generation, probe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mid := <-progress; mid <= 0 || mid > int64(rep.Events) {
		t.Fatalf("mid-run live events = %d, want in (0, %d]", mid, rep.Events)
	}
	if got := live.Events.Load(); got != int64(rep.Events) {
		t.Fatalf("live events = %d, report %d", got, rep.Events)
	}
	if got := live.Rejected.Load(); got != int64(rep.Rejected) {
		t.Fatalf("live rejected = %d, report %d", got, rep.Rejected)
	}
	if got := live.UEs.Load(); got != int64(rep.UEs) {
		t.Fatalf("live UEs = %d, report %d", got, rep.UEs)
	}
	if got := live.Instances.Load(); got != int64(rep.FinalInstances) {
		t.Fatalf("live instances = %d, report %d", got, rep.FinalInstances)
	}
	if got := float64(live.P95LatencyNanos.Load()) / 1e9; math.Abs(got-rep.P95LatencySec) > 2e-9 {
		t.Fatalf("live p95 = %v, report %v", got, rep.P95LatencySec)
	}
	if got := float64(live.P99LatencyNanos.Load()) / 1e9; math.Abs(got-rep.P99LatencySec) > 2e-9 {
		t.Fatalf("live p99 = %v, report %v", got, rep.P99LatencySec)
	}
	if got := float64(live.MeanLatencyNanos.Load()) / 1e9; math.Abs(got-rep.MeanLatencySec) > 2e-9 {
		t.Fatalf("live mean = %v, report %v", got, rep.MeanLatencySec)
	}

	// Live publication must not change the simulation itself.
	cfg.Live = nil
	rep2, err := Run(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Events != rep.Events || rep2.Rejected != rep.Rejected || rep2.P99LatencySec != rep.P99LatencySec {
		t.Fatalf("Live changed the simulation: %+v vs %+v", rep2, rep)
	}
}

// probeSource passes arrivals through and snapshots a live counter once,
// mid-stream — proof the stats are readable while the run is in flight.
type probeSource struct {
	src  trace.ArrivalSource
	n    int64
	at   int64
	live *LiveStats
	out  chan int64
}

func (p *probeSource) NextArrival() (trace.Arrival, bool, error) {
	p.n++
	if p.n == p.at {
		p.out <- p.live.Events.Load()
	}
	return p.src.NextArrival()
}

// TestRunStreamAllocsPerArrival bounds the simulator's per-event heap
// traffic: the instance pool is updated in place, so what a run allocates
// is its fixed setup and the per-UE tally's growth, far under one
// allocation per arrival.
func TestRunStreamAllocsPerArrival(t *testing.T) {
	d := workload(t, 300)
	var arr []trace.Arrival
	for src := d.Arrivals(); ; {
		a, ok, err := src.NextArrival()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		arr = append(arr, a)
	}
	cfg := DefaultConfig()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := RunStream(d.Generation, src(arr), cfg); err != nil {
			t.Fatal(err)
		}
	})
	perArrival := allocs / float64(len(arr))
	t.Logf("%.0f allocations over %d arrivals = %.3f per arrival", allocs, len(arr), perArrival)
	if perArrival > 0.1 {
		t.Fatal("want ≤ 0.1 allocations per arrival")
	}
}
