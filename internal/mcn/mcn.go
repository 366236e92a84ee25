// Package mcn simulates a mobile-core-network control-plane function (an
// MME/AMF-like event processor) consuming a control-plane traffic trace.
// It is the downstream application substrate motivating the paper (§2.2):
// evaluating MCN designs — throughput, latency, autoscaling — requires
// realistic control-plane workloads, and this simulator is what the
// examples and the scenario engine drive with synthesized traffic.
//
// The simulation is event-driven in virtual time: a time-ordered arrival
// sequence — pulled incrementally from a trace.ArrivalSource, so a million-UE
// scenario never materializes in memory — is served by a pool of NF
// instances with per-event-type service costs; an optional autoscaler
// resizes the pool per window against a target utilization. Per-UE state is
// tracked with the 3GPP state machine, and semantically invalid events are
// rejected — which is how a stateful MCN would behave, and why the paper
// insists only semantically correct traces are usable downstream.
//
// Latency percentiles are computed from a fixed-size log-spaced histogram
// (telemetry.Histogram over telemetry.LatencyBuckets: exact mean, percentile
// values rounded up to a bucket edge ≤ 16%/decade apart), so the simulator's
// memory footprint is O(per-UE state), never O(events).
//
// Concurrency contract: Run/RunStream are synchronous and single-threaded —
// the simulation loop owns all of its state and two concurrent calls never
// share anything. The one cross-goroutine surface is Config.Live: when set,
// the loop publishes progress into LiveStats' atomic fields (counters per
// arrival; latency quantiles and instance counts at every metering-window
// close and every liveQuantileEvery arrivals), and any number of goroutines
// may read them while the run is in flight — that is what backs the
// cptserved daemon's mid-run /stats and /metrics. Determinism: the
// simulation is pure virtual time — results depend only on the arrival
// sequence and Config, never on wall-clock pacing or readers.
package mcn

import (
	"container/heap"
	"fmt"
	"math"
	"sync/atomic"

	"cptgpt/internal/events"
	"cptgpt/internal/statemachine"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/trace"
)

// Config parameterizes the MCN simulation.
type Config struct {
	// BaseInstances is the initial NF instance count (parallel servers).
	BaseInstances int
	// AutoScale enables per-window pool resizing.
	AutoScale bool
	// TargetUtil is the autoscaler's utilization set-point in (0, 1).
	TargetUtil float64
	// Window is the autoscaler/metering window in seconds.
	Window float64
	// ServiceCost maps each event type to its service time in seconds;
	// types absent from the map use DefaultServiceCost.
	ServiceCost map[events.Type]float64
	// DefaultServiceCost is the fallback service time in seconds.
	DefaultServiceCost float64
	// MaxInstances bounds the autoscaler.
	MaxInstances int
	// Live, when non-nil, receives the simulation's progress as atomic
	// counters while RunStream is still running (see LiveStats). It does
	// not change the simulation.
	Live *LiveStats
	// LatencySink, when non-nil, is the histogram the run records every
	// served event's latency (seconds) into and reads its report from, in
	// place of a private one — the distribution-level counterpart of Live's
	// point quantiles, rendered natively on /metrics. It must be empty and
	// the run its only writer. It does not change the simulation.
	LatencySink *telemetry.Histogram
}

// LiveStats publishes a running simulation's progress for concurrent
// readers: all fields are atomics, written by the simulation loop and
// readable from any goroutine at any time. Events, Rejected, UEs and
// ConnectedUEs advance per arrival; MeanLatencyNanos, P95LatencyNanos,
// P99LatencyNanos and Instances refresh at every metering-window close,
// every liveQuantileEvery arrivals, and once at the end of the run, when
// they match the final Report exactly.
type LiveStats struct {
	Events       atomic.Int64
	Rejected     atomic.Int64
	UEs          atomic.Int64
	ConnectedUEs atomic.Int64
	Instances    atomic.Int64

	MeanLatencyNanos atomic.Int64
	P95LatencyNanos  atomic.Int64
	P99LatencyNanos  atomic.Int64
}

// liveQuantileEvery is how many arrivals may pass between latency-quantile
// refreshes of Config.Live (quantile extraction walks the histogram's ~150
// buckets, so it stays off the per-event path).
const liveQuantileEvery = 512

// DefaultConfig returns a configuration with 3GPP-flavoured relative costs:
// attach/detach are heavyweight (authentication, session setup), service
// requests and releases moderate, handovers and TAUs light.
func DefaultConfig() Config {
	return Config{
		BaseInstances: 2,
		AutoScale:     true,
		TargetUtil:    0.6,
		Window:        60,
		ServiceCost: map[events.Type]float64{
			events.Attach:         0.020,
			events.Register:       0.020,
			events.Detach:         0.010,
			events.Deregister:     0.010,
			events.ServiceRequest: 0.005,
			events.S1ConnRel:      0.003,
			events.ANRel:          0.003,
			events.Handover:       0.004,
			events.TAU:            0.002,
		},
		DefaultServiceCost: 0.005,
		MaxInstances:       64,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.BaseInstances < 1:
		return fmt.Errorf("mcn: BaseInstances must be ≥ 1, got %d", c.BaseInstances)
	case c.AutoScale && (c.TargetUtil <= 0 || c.TargetUtil >= 1):
		return fmt.Errorf("mcn: TargetUtil must be in (0,1), got %v", c.TargetUtil)
	case c.Window <= 0:
		return fmt.Errorf("mcn: Window must be positive, got %v", c.Window)
	case c.DefaultServiceCost <= 0:
		return fmt.Errorf("mcn: DefaultServiceCost must be positive, got %v", c.DefaultServiceCost)
	case c.MaxInstances < c.BaseInstances:
		return fmt.Errorf("mcn: MaxInstances %d below BaseInstances %d", c.MaxInstances, c.BaseInstances)
	}
	return nil
}

// WindowStat is one metering window's aggregate.
type WindowStat struct {
	Start     float64
	Arrivals  int
	Util      float64
	Instances int
}

// Report is the simulation output.
type Report struct {
	// Events is the number of arrivals processed, each UE's events before
	// its bootstrap included. Rejected counts events dropped for violating
	// the UE state machine; its denominator is Events. Table 5's violation
	// rate divides by the counted events only, those after the bootstrap
	// (statemachine.Tally.CountedEvents).
	Events   int
	Rejected int
	// MeanLatencySec / P95LatencySec / P99LatencySec summarize the
	// queueing + service latency of accepted events. The mean is exact;
	// the percentiles are upper bucket edges of a log-spaced histogram.
	MeanLatencySec float64
	P95LatencySec  float64
	P99LatencySec  float64
	// PeakRate is the highest per-window arrival rate (events/s).
	PeakRate float64
	// PeakConnectedUEs is the maximum number of UEs simultaneously in the
	// CONNECTED top-level state — the per-UE state memory a stateful MCN
	// must hold (§3.2 C3).
	PeakConnectedUEs int
	// UEs is the number of distinct UEs observed.
	UEs int
	// FinalInstances is the instance count at the end of the run;
	// MaxInstancesUsed is the autoscaler's high-water mark.
	FinalInstances   int
	MaxInstancesUsed int
	// Windows carries the per-window history (for autoscaling plots).
	Windows []WindowStat
}

// serverHeap is a min-heap of per-instance next-free times.
type serverHeap []float64

func (h serverHeap) Len() int            { return len(h) }
func (h serverHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h serverHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *serverHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *serverHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Run simulates the MCN over the dataset and returns the report. It is
// RunStream over the dataset's merged arrival sequence.
func Run(d *trace.Dataset, cfg Config) (*Report, error) {
	return RunStream(d.Generation, d.Arrivals(), cfg)
}

// RunStream simulates the MCN over a time-ordered arrival sequence pulled
// incrementally from src. Memory is bounded by the per-UE state tally and
// the instance pool — independent of the number of events — which is what
// lets the scenario engine drive million-UE workloads through it. Arrivals
// must be non-decreasing in time; a time regression is reported as an error
// (merged scenario streams guarantee order by construction).
func RunStream(gen events.Generation, src trace.ArrivalSource, cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	tally := statemachine.NewTally(statemachine.New(gen))

	servers := make(serverHeap, cfg.BaseInstances)
	heap.Init(&servers)
	instances := cfg.BaseInstances
	maxInstances := instances

	rep := &Report{}
	hist := cfg.LatencySink
	if hist == nil {
		hist = telemetry.NewHistogram(telemetry.LatencyBuckets)
	}
	var winStart float64
	winArrivals := 0
	var winBusy float64
	started := false
	var lastTime float64

	// publishQuantiles refreshes Live's derived metrics (quantile queries
	// walk the histogram, so they run per window / every few hundred
	// events, never per arrival).
	publishQuantiles := func() {
		if cfg.Live == nil {
			return
		}
		cfg.Live.MeanLatencyNanos.Store(int64(hist.Mean() * 1e9))
		cfg.Live.P95LatencyNanos.Store(int64(hist.Quantile(0.95) * 1e9))
		cfg.Live.P99LatencyNanos.Store(int64(hist.Quantile(0.99) * 1e9))
		cfg.Live.Instances.Store(int64(instances))
	}

	closeWindow := func(end float64) {
		dur := end - winStart
		if dur <= 0 {
			dur = cfg.Window
		}
		util := winBusy / (dur * float64(instances))
		rate := float64(winArrivals) / dur
		rep.Windows = append(rep.Windows, WindowStat{Start: winStart, Arrivals: winArrivals, Util: util, Instances: instances})
		if rate > rep.PeakRate {
			rep.PeakRate = rate
		}
		if cfg.AutoScale {
			want := int(math.Ceil(util / cfg.TargetUtil * float64(instances)))
			if want < cfg.BaseInstances {
				want = cfg.BaseInstances
			}
			if want > cfg.MaxInstances {
				want = cfg.MaxInstances
			}
			for instances < want {
				heap.Push(&servers, end)
				instances++
			}
			for instances > want && len(servers) > 0 {
				// Retire the soonest-free server.
				heap.Pop(&servers)
				instances--
			}
			if instances > maxInstances {
				maxInstances = instances
			}
		}
		winStart = end
		winArrivals = 0
		winBusy = 0
		publishQuantiles()
	}

	for {
		a, ok, err := src.NextArrival()
		if err != nil {
			return nil, fmt.Errorf("mcn: arrival source: %w", err)
		}
		if !ok {
			break
		}
		if !started {
			winStart = a.Time
			started = true
		} else if a.Time < lastTime {
			return nil, fmt.Errorf("mcn: arrivals out of order: %v after %v", a.Time, lastTime)
		}
		lastTime = a.Time
		for a.Time >= winStart+cfg.Window {
			closeWindow(winStart + cfg.Window)
		}
		winArrivals++
		rep.Events++
		if cfg.Live != nil {
			cfg.Live.Events.Add(1)
			if rep.Events%liveQuantileEvery == 0 {
				publishQuantiles()
			}
		}

		// Stateful admission under the replay rule (statemachine.Apply):
		// pre-bootstrap events are admitted without a state check, and an
		// event the machine refuses is dropped unserved.
		admitted := tally.Observe(a.UE, a.Type, a.Time)
		if cfg.Live != nil {
			cfg.Live.Rejected.Store(int64(tally.ViolatingEvents))
			cfg.Live.UEs.Store(int64(tally.UEs))
			cfg.Live.ConnectedUEs.Store(int64(tally.Connected))
		}
		if !admitted {
			continue
		}

		// Queueing: earliest-free server takes the job. Its next-free time
		// only grows, so it is rewritten in place and sifted down — a
		// Pop+Push pair would box a float64 on every event.
		cost := cfg.ServiceCost[a.Type]
		if cost == 0 {
			cost = cfg.DefaultServiceCost
		}
		finish := math.Max(servers[0], a.Time) + cost
		servers[0] = finish
		heap.Fix(&servers, 0)
		hist.Observe(finish - a.Time)
		winBusy += cost
	}
	if !started {
		return &Report{FinalInstances: cfg.BaseInstances}, nil
	}
	closeWindow(winStart + cfg.Window)

	rep.Rejected = tally.ViolatingEvents
	rep.UEs = tally.UEs
	rep.PeakConnectedUEs = tally.PeakConnected
	rep.MeanLatencySec = hist.Mean()
	rep.P95LatencySec = hist.Quantile(0.95)
	rep.P99LatencySec = hist.Quantile(0.99)
	rep.FinalInstances = instances
	rep.MaxInstancesUsed = maxInstances
	publishQuantiles()
	return rep, nil
}
