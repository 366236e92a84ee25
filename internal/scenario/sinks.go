package scenario

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/mcn"
	"cptgpt/internal/replaynet"
	"cptgpt/internal/telemetry"
	"cptgpt/internal/tracez"
)

// The sink registry. This file is the one place that spells a sink's name
// or compares one: cptscenario and cptserved hand a SinkConfig to NewSink
// and use what comes back through Sink, Result and the two optional
// capabilities (Checkpointer, LiveSink) — a go/ast test keeps the names out
// of their sources.
const (
	sinkCount  = "count"
	sinkMCN    = "mcn"
	sinkJSONL  = "jsonl"
	sinkCSV    = "csv"
	sinkReplay = "replay"

	// DefaultSink is the sink an empty SinkConfig.Name selects.
	DefaultSink = sinkCount
)

// sinkEntry registers one sink: what it is called, which of the target
// fields it takes, and how it is built.
type sinkEntry struct {
	name         string
	file, replay bool
	build        func(SinkConfig) Sink
}

// sinks lists every sink, in help order.
var sinks = []sinkEntry{
	{name: sinkCount, build: func(SinkConfig) Sink { return countSink{} }},
	{name: sinkMCN, build: newMCNSink},
	{name: sinkJSONL, file: true, build: func(c SinkConfig) Sink { return &fileSink{cfg: c} }},
	{name: sinkCSV, file: true, build: func(c SinkConfig) Sink { return &fileSink{cfg: c} }},
	{name: sinkReplay, replay: true, build: newReplaySink},
}

// SinkList renders the registered names as prose ("count, mcn, … or
// replay") for flag help and the unknown-sink error.
func SinkList() string {
	names := make([]string, len(sinks))
	for i, s := range sinks {
		names[i] = s.name
	}
	return strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}

// Sink consumes a scenario's event sequence to exhaustion and reports what
// it saw. A stopped source (see Pacer) is an ordinary end of stream: the
// sink flushes, completes its handshakes and returns the partial Result.
type Sink interface {
	Consume(ctx context.Context, src EventSource) (Result, error)
}

// Result is a finished sink's report, in the two forms it is read in.
type Result interface {
	// Wire returns the report under the keys the daemon's RunInfo.Result
	// carries.
	Wire() map[string]any
	// Report prints cptscenario's account of the run: findings to out,
	// and to diag the status of a sink whose data may itself own stdout.
	Report(out, diag io.Writer, scenario string, wall time.Duration)
}

// SinkConfig names a sink and says where it delivers.
type SinkConfig struct {
	// Name is one of SinkList ("" = DefaultSink).
	Name string
	// Out is the file sinks' output path (".gz" compresses). Stdout, when
	// set, takes their output when Out is empty (cptscenario's default);
	// without it Out is required.
	Out    string
	Stdout io.Writer
	// Addr is the replay sink's server address. ClosedLoop selects the
	// acknowledged driver (CUBIC window, RTT/RTO estimation,
	// reconnect-resume) over the open-loop one; neither paces — a Pacer
	// upstream keeps the schedule. Dial replaces net.Dial for the
	// closed-loop driver (the fault-injection seam).
	Addr       string
	ClosedLoop bool
	Dial       func(addr string) (net.Conn, error)
	// MCN configures the mcn sink; the zero value means mcn.DefaultConfig().
	MCN mcn.Config
	// Below is the caller's writer layer around a file sink's output — the
	// daemon's byte-counting writer; cptscenario has none. It wraps the
	// opened file, under the gzip layer of a ".gz" path, and returns with
	// it a count of the bytes that reached the file, offset (a resumed
	// file's kept prefix) included: the byte half of the sink's Cursor,
	// which stays zero without it. A write error from it fails Consume.
	Below func(f io.Writer, offset int64) (w io.Writer, written func() int64)
}

// Validate checks the name and every name × field combination — all that
// can be refused without I/O (Probe is the part that cannot).
func (c SinkConfig) Validate() error {
	_, err := c.check()
	return err
}

// check is Validate, returning the sink's registration with the verdict.
func (c SinkConfig) check() (sinkEntry, error) {
	name := c.Name
	if name == "" {
		name = DefaultSink
	}
	i := slices.IndexFunc(sinks, func(s sinkEntry) bool { return s.name == name })
	if i < 0 {
		return sinkEntry{}, fmt.Errorf("unknown sink %q (want %s)", c.Name, SinkList())
	}
	s := sinks[i]
	file, replay := s.file, s.replay
	switch {
	case file && c.Out == "" && c.Stdout == nil:
		return s, fmt.Errorf("sink %q requires out (server-side output path)", c.Name)
	case !file && c.Out != "":
		return s, fmt.Errorf("sink %q takes no out path", c.Name)
	case replay && c.Addr == "":
		return s, fmt.Errorf("sink %q requires addr (replaynet server address)", c.Name)
	case !replay && c.Addr != "":
		return s, fmt.Errorf("sink %q takes no addr", c.Name)
	case !replay && c.ClosedLoop:
		return s, errors.New("closed_loop only applies to the replay sink")
	case !replay && c.Dial != nil:
		return s, errors.New("fault injection only applies to the replay sink")
	}
	return s, nil
}

// Probe checks that a replay sink's server accepts connections, so a bad
// address is refused up front rather than after the pipeline has spun up.
// It is the one check that touches the network: run it after Validate and
// everything else that needs none.
func (c SinkConfig) Probe() error {
	if c.Addr == "" { // only the replay sink has one
		return nil
	}
	conn, err := net.DialTimeout("tcp", c.Addr, 2*time.Second)
	if err != nil {
		return fmt.Errorf("replay addr %q unreachable: %w", c.Addr, err)
	}
	conn.Close()
	return nil
}

// NewSink validates the configuration and builds its sink.
func NewSink(c SinkConfig) (Sink, error) {
	s, err := c.check()
	if err != nil {
		return nil, err
	}
	c.Name = s.name
	return s.build(c), nil
}

// Cursor is a sink's durable position: what a journal checkpoint records
// of the sink and a resumed run hands back to it.
type Cursor struct {
	// Events is how many events the sink durably holds. A file sink only
	// takes it back on Resume (its cursor covers every event pulled, which
	// the caller counts); closed-loop replay reports the absolute sequence
	// its server has contiguously applied.
	Events int64
	// Bytes (file sinks) is the output file's durable length.
	Bytes int64
	// Session (closed-loop replay) is the server-side session. A cursor
	// that names a session trails the events pulled — the server confirms
	// them later — where a file's covers every one.
	Session uint64
}

// Checkpointer is the capability of a sink whose output survives a crash
// of the process feeding it: it can vouch for a durable prefix and carry on
// from one. The file sinks and closed-loop replay have it.
type Checkpointer interface {
	// Checkpoint makes what the sink has consumed so far durable as far as
	// it can, then calls commit once with the position reached; ok=false
	// means nothing can be vouched for (the checkpoint must be skipped).
	// A jsonl/csv file syncs off the caller's path: Checkpoint returns at
	// once and commit runs later on the sink's syncer goroutine, in call
	// order and before Consume returns. Every other sink commits before
	// Checkpoint returns. During Consume it is called from inside
	// src.Next, on Consume's own goroutine.
	Checkpoint(commit func(c Cursor, ok bool))
	// Cursor is Checkpoint, waited for: the position a commit would carry.
	// Before Consume, a sink that tracks a session already reports it.
	Cursor() (c Cursor, ok bool)
	// Resume makes the next Consume continue from c, the source then
	// delivering only the events past it. An error means c is unusable
	// here and the run must start over.
	Resume(c Cursor) error
}

// MCNStats is the mcn sink's live state.
type MCNStats struct {
	Events       int64   `json:"events"`
	Rejected     int64   `json:"rejected"`
	UEs          int64   `json:"ues"`
	ConnectedUEs int64   `json:"connected_ues"`
	Instances    int64   `json:"instances"`
	MeanMs       float64 `json:"latency_mean_ms"`
	P95Ms        float64 `json:"latency_p95_ms"`
	P99Ms        float64 `json:"latency_p99_ms"`
}

// ReplayStats is the closed-loop replay transport's live state.
type ReplayStats struct {
	Cwnd        int64   `json:"cwnd"`
	Inflight    int64   `json:"inflight"`
	SRTTMs      float64 `json:"srtt_ms"`
	RTOMs       float64 `json:"rto_ms"`
	Sent        int64   `json:"sent"`
	Acked       int64   `json:"acked"`
	Retransmits int64   `json:"retransmits"`
	Reconnects  int64   `json:"reconnects"`
}

// LiveSink is the capability of a sink with state worth watching while it
// runs (mcn, closed-loop replay). Everything it exposes is atomics.
type LiveSink interface {
	// Publish registers the sink's cptserved_* series under labels,
	// switching the live state on where the sink does not keep it anyway.
	// Call it before Consume.
	Publish(reg *telemetry.Registry, labels ...telemetry.Label)
	// Stats snapshots the live state into the sink's own block of the
	// daemon's /runs/{id}/stats body.
	Stats() (*MCNStats, *ReplayStats)
}

// countSink drains and summarizes (Drain).
type countSink struct{}

func (countSink) Consume(_ context.Context, src EventSource) (Result, error) {
	sum, err := Drain(src)
	if err != nil {
		return nil, err
	}
	return sum, nil
}

func (s Summary) Wire() map[string]any {
	return map[string]any{
		"events":            s.Events,
		"first_time":        s.FirstTime,
		"last_time":         s.LastTime,
		"peak_rate":         s.PeakRate,
		"peak_window_start": s.PeakWindowStart,
	}
}

func (s Summary) Report(out, _ io.Writer, scenario string, wall time.Duration) {
	fmt.Fprintf(out, "scenario %s: %d events in [%.1fs, %.1fs], generated in %v\n",
		scenario, s.Events, s.FirstTime, s.LastTime, wall.Round(time.Millisecond))
	fmt.Fprintf(out, "peak rate %.1f events/s in window starting at %.0fs\n", s.PeakRate, s.PeakWindowStart)
	for t, n := range s.ByType {
		if n > 0 {
			fmt.Fprintf(out, "  %-12s %d\n", events.Type(t), n)
		}
	}
}

// mcnSink drives the simulated mobile-core control-plane function (RunMCN).
type mcnSink struct{ cfg mcn.Config }

func newMCNSink(c SinkConfig) Sink {
	if c.MCN.BaseInstances == 0 && c.MCN.DefaultServiceCost == 0 {
		c.MCN = mcn.DefaultConfig()
	}
	return &mcnSink{cfg: c.MCN}
}

func (s *mcnSink) Consume(_ context.Context, src EventSource) (Result, error) {
	rep, err := RunMCN(src, s.cfg)
	if err != nil {
		return nil, err
	}
	return mcnResult(*rep), nil
}

func (s *mcnSink) Publish(reg *telemetry.Registry, labels ...telemetry.Label) {
	live := &mcn.LiveStats{}
	s.cfg.Live = live
	reg.CounterFunc("cptserved_mcn_events_total",
		"Arrivals processed by the run's MCN simulation.",
		live.Events.Load, labels...)
	reg.CounterFunc("cptserved_mcn_rejected_total",
		"Arrivals rejected by the MCN's UE state machine.",
		live.Rejected.Load, labels...)
	reg.GaugeFunc("cptserved_mcn_connected_ues",
		"UEs currently in the CONNECTED state.",
		func() float64 { return float64(live.ConnectedUEs.Load()) }, labels...)
	reg.GaugeFunc("cptserved_mcn_instances",
		"NF instances currently provisioned by the autoscaler.",
		func() float64 { return float64(live.Instances.Load()) }, labels...)
	for _, q := range []struct {
		stat  string
		nanos func() int64
	}{
		{"mean", live.MeanLatencyNanos.Load},
		{"p95", live.P95LatencyNanos.Load},
		{"p99", live.P99LatencyNanos.Load},
	} {
		reg.GaugeFunc("cptserved_mcn_latency_seconds",
			"MCN event latency (mean refreshes per metering window).",
			func() float64 { return float64(q.nanos()) / 1e9 },
			append([]telemetry.Label{telemetry.L("stat", q.stat)}, labels...)...)
	}
	s.cfg.LatencySink = reg.Histogram("cptserved_mcn_arrival_latency_seconds",
		"Distribution of per-event MCN serving latency.",
		telemetry.LatencyBuckets, labels...)
}

func (s *mcnSink) Stats() (*MCNStats, *ReplayStats) {
	live := s.cfg.Live
	if live == nil {
		return nil, nil
	}
	return &MCNStats{
		Events:       live.Events.Load(),
		Rejected:     live.Rejected.Load(),
		UEs:          live.UEs.Load(),
		ConnectedUEs: live.ConnectedUEs.Load(),
		Instances:    live.Instances.Load(),
		MeanMs:       float64(live.MeanLatencyNanos.Load()) / 1e6,
		P95Ms:        float64(live.P95LatencyNanos.Load()) / 1e6,
		P99Ms:        float64(live.P99LatencyNanos.Load()) / 1e6,
	}, nil
}

type mcnResult mcn.Report

func (r mcnResult) Wire() map[string]any {
	return map[string]any{
		"events":          r.Events,
		"rejected":        r.Rejected,
		"ues":             r.UEs,
		"latency_mean_ms": 1e3 * r.MeanLatencySec,
		"latency_p95_ms":  1e3 * r.P95LatencySec,
		"latency_p99_ms":  1e3 * r.P99LatencySec,
		"peak_rate":       r.PeakRate,
		"max_instances":   r.MaxInstancesUsed,
	}
}

func (r mcnResult) Report(out, _ io.Writer, scenario string, wall time.Duration) {
	fmt.Fprintf(out, "scenario %s: %d events from %d UEs in %v\n", scenario, r.Events, r.UEs, wall.Round(time.Millisecond))
	fmt.Fprintf(out, "mcn: rejected=%d (%.4f%%) peak_rate=%.1f/s peak_connected=%d\n",
		r.Rejected, 100*float64(r.Rejected)/float64(max(r.Events, 1)), r.PeakRate, r.PeakConnectedUEs)
	fmt.Fprintf(out, "mcn: latency mean=%.2fms p95=%.2fms p99=%.2fms instances[final=%d max=%d]\n",
		1e3*r.MeanLatencySec, 1e3*r.P95LatencySec, 1e3*r.P99LatencySec, r.FinalInstances, r.MaxInstancesUsed)
}

// newReplaySink builds the networked load-test sink in either of its two
// drivers.
func newReplaySink(c SinkConfig) Sink {
	if !c.ClosedLoop {
		return &replaySink{addr: c.Addr}
	}
	// The session is fixed here, not inside the driver, so that a journal
	// can record it (Cursor) and a resumed run rejoin it (Resume).
	return &closedSink{addr: c.Addr, opts: replaynet.ClosedOpts{
		Dial: c.Dial, SessionID: replaynet.NewSessionID(), Live: &replaynet.LiveStats{},
	}}
}

// replaySink writes the stream onto a replaynet server, open loop.
type replaySink struct{ addr string }

func (s *replaySink) Consume(_ context.Context, src EventSource) (Result, error) {
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	stats, err := replaynet.ReplayStream(s.addr, src.Generation(), arrivals{src})
	sp.End(int64(stats.Events), sinkReplay)
	if err != nil {
		return nil, err
	}
	return replayResult(stats), nil
}

type replayResult replaynet.Stats

func (r replayResult) Wire() map[string]any {
	return map[string]any{
		"events":             r.Events,
		"rejected":           r.Rejected,
		"peak_connected_ues": r.PeakConnectedUEs,
	}
}

func (r replayResult) Report(out, _ io.Writer, scenario string, wall time.Duration) {
	fmt.Fprintf(out, "scenario %s replayed in %v: server saw %d events, %d rejected, peak %d connected UEs\n",
		scenario, wall.Round(time.Millisecond), r.Events, r.Rejected, r.PeakConnectedUEs)
}

// closedSink replays in closed loop: every event is an acknowledged
// signaling transaction, the in-flight count is governed by a CUBIC-style
// window and delivery is exactly-once across connection failures.
type closedSink struct {
	addr string
	opts replaynet.ClosedOpts
}

func (s *closedSink) Consume(_ context.Context, src EventSource) (Result, error) {
	sp := tracez.Begin(tracez.StageScenarioSink, "")
	stats, err := replaynet.ReplayClosed(s.addr, src.Generation(), arrivals{src}, s.opts)
	sp.End(stats.Acked, "replay-closed")
	if err != nil {
		return nil, err
	}
	return closedResult(stats), nil
}

// Checkpoint commits the acknowledged position at once: the server's
// acknowledgement is what makes it durable.
func (s *closedSink) Checkpoint(commit func(Cursor, bool)) { commit(s.Cursor()) }

func (s *closedSink) Cursor() (Cursor, bool) {
	return Cursor{Session: s.opts.SessionID, Events: int64(s.opts.Live.AckedSeq.Load())}, true
}

// Resume rejoins the journaled session: the driver skips whatever the
// server applied past c.Events, so delivery stays exactly-once end to end.
func (s *closedSink) Resume(c Cursor) error {
	s.opts.SessionID = c.Session
	s.opts.ResumeFrom = uint64(c.Events)
	s.opts.Live.AckedSeq.Store(s.opts.ResumeFrom)
	return nil
}

func (s *closedSink) Publish(reg *telemetry.Registry, labels ...telemetry.Label) {
	live := s.opts.Live
	reg.GaugeFunc("cptserved_replay_cwnd",
		"Closed-loop replay congestion window (in-flight event budget).",
		func() float64 { return float64(live.CwndEvents.Load()) }, labels...)
	reg.GaugeFunc("cptserved_replay_srtt_seconds",
		"Closed-loop replay smoothed transaction RTT.",
		func() float64 { return float64(live.SRTTNanos.Load()) / 1e9 }, labels...)
	reg.GaugeFunc("cptserved_replay_rto_seconds",
		"Closed-loop replay retransmission timeout.",
		func() float64 { return float64(live.RTONanos.Load()) / 1e9 }, labels...)
	reg.CounterFunc("cptserved_replay_retx_total",
		"Events retransmitted after a loss event.",
		live.Retransmits.Load, labels...)
	reg.GaugeFunc("cptserved_replay_inflight",
		"Sent-but-unacknowledged closed-loop events.",
		func() float64 { return float64(live.Inflight.Load()) }, labels...)
	reg.CounterFunc("cptserved_replay_reconnects_total",
		"Completed reconnect-and-resume handshakes.",
		live.Reconnects.Load, labels...)
	s.opts.RTTSink = reg.Histogram("cptserved_replay_rtt_seconds",
		"Distribution of closed-loop replay send→ACK round-trip times.",
		telemetry.LatencyBuckets, labels...)
}

func (s *closedSink) Stats() (*MCNStats, *ReplayStats) {
	live := s.opts.Live
	return nil, &ReplayStats{
		Cwnd:        live.CwndEvents.Load(),
		Inflight:    live.Inflight.Load(),
		SRTTMs:      float64(live.SRTTNanos.Load()) / 1e6,
		RTOMs:       float64(live.RTONanos.Load()) / 1e6,
		Sent:        live.Sent.Load(),
		Acked:       live.Acked.Load(),
		Retransmits: live.Retransmits.Load(),
		Reconnects:  live.Reconnects.Load(),
	}
}

type closedResult replaynet.ClosedStats

func (r closedResult) Wire() map[string]any {
	return map[string]any{
		"events":          r.Server.Events,
		"rejected":        r.Server.Rejected,
		"duplicates":      r.Server.Duplicates,
		"sent":            r.Sent,
		"acked":           r.Acked,
		"retransmits":     r.Retransmits,
		"reconnects":      r.Reconnects,
		"latency_mean_ms": float64(r.MeanLatency) / 1e6,
		"latency_p99_ms":  float64(r.P99Latency) / 1e6,
		"achieved_rate":   r.AchievedRate,
	}
}

func (r closedResult) Report(out, _ io.Writer, scenario string, wall time.Duration) {
	fmt.Fprintf(out, "scenario %s closed-loop replayed in %v: server applied %d events (%d rejected, %d duplicates suppressed), peak %d connected UEs\n",
		scenario, wall.Round(time.Millisecond), r.Server.Events,
		r.Server.Rejected, r.Server.Duplicates, r.Server.PeakConnectedUEs)
	fmt.Fprintf(out, "transport: sent=%d acked=%d retx=%d reconnects=%d rate=%.1f/s latency mean=%v p99=%v srtt=%v cwnd=%.1f\n",
		r.Sent, r.Acked, r.Retransmits, r.Reconnects, r.AchievedRate,
		r.MeanLatency.Round(time.Microsecond), r.P99Latency.Round(time.Microsecond),
		r.SRTT.Round(time.Microsecond), r.FinalCwnd)
}
