// Package tracez is the pipeline's always-on flight recorder: a
// fixed-capacity lock-free ring buffer of spans (stage, run id, start,
// duration, payload count) plus per-stage duration aggregates, cheap enough
// to leave compiled into every hot path. The scenario pipeline, the CPT-GPT
// batch decoder, the pacer, the replay transport and the serving daemon all
// record here, so "why is my run lagging?" is answerable after the fact
// from GET /debug/trace (daemon) or a -trace summary dump (batch CLIs).
//
// Concurrency contract: when disabled (the default for batch CLIs),
// Begin/Record cost one atomic load and record nothing. When enabled,
// recording a span is one time.Now, one allocation, one atomic fetch-add to
// claim a ring slot, one atomic pointer store, and a handful of atomic adds
// for the stage aggregate — bounded, allocation-light, and safe from any
// number of goroutines. The ring overwrites oldest spans; Snapshot and
// Handler read concurrently with writers and may observe a slot mid-wrap
// (they see the newer span — never a torn one, since slots hold atomic
// pointers to immutable spans). Enable/Disable/SetCapacity/Reset are
// setup-path operations.
//
// Stage names are dotted hierarchies ("scenario.spill", "decode.step");
// the Stage* constants below are the instrumented set.
package tracez

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cptgpt/internal/telemetry"
)

// Instrumented stage names. Call sites may also record ad-hoc stages; these
// constants are the set the docs, the /debug/trace walkthrough and the CI
// smoke assert on.
const (
	StageScenarioSource  = "scenario.source"  // one source chunk generated
	StageScenarioOps     = "scenario.ops"     // operator rewrite of one chunk
	StageScenarioSpill   = "scenario.spill"   // sort + spill one sorted run
	StageScenarioMerge   = "scenario.merge"   // one k-way merge pass
	StageScenarioSink    = "scenario.sink"    // one sink drain, end to end
	StagePacerWait       = "pacer.wait"       // one pacer release wait
	StagePacerWindow     = "pacer.window"     // one achieved-rate window
	StageDecodeStep      = "decode.step"      // one decoder pass, one row per slot
	StageDecodeStepK     = "decode.stepk"     // one decoder pass, several rows per slot
	StageDecodeDraft     = "decode.draft"     // speculative draft proposal phase
	StageDecodeVerify    = "decode.verify"    // speculative acceptance phase
	StageReplayAck       = "replay.ack"       // one ACK fold (dur = RTT sample)
	StageReplayReconnect = "replay.reconnect" // one reconnect-and-resume
	StageRunGenerate     = "run.generate"     // served run: open scenario stream
	StageRunStream       = "run.stream"       // served run: drain through sink
	StageRunState        = "run.state"        // served run state transition (dur 0)
	StageRunlogAppend    = "runlog.append"    // one write-ahead journal append
	StageRunRecover      = "run.recover"      // served run: crash-recovery resume
	StageRunQueued       = "run.queued"       // served run: admission-queue wait
	StageSinkBreaker     = "sink.breaker"     // one sink circuit-breaker open interval
)

// Span is one recorded event: a stage, an optional run id, wall-clock start
// and duration in nanoseconds, an optional payload count N (events, tokens,
// slots — stage-dependent) and an optional free-form attribute.
type Span struct {
	Stage string `json:"stage"`
	Run   string `json:"run,omitempty"`
	Start int64  `json:"start_unix_nano"`
	Dur   int64  `json:"dur_nanos"`
	N     int64  `json:"n,omitempty"`
	Attr  string `json:"attr,omitempty"`
}

// DefaultCapacity is the span ring size until SetCapacity is called.
const DefaultCapacity = 8192

type ringBuf struct {
	slots []atomic.Pointer[Span]
	head  atomic.Uint64 // next slot to claim; slot i lives at i % len(slots)
}

func newRing(capacity int) *ringBuf {
	if capacity < 64 {
		capacity = 64
	}
	return &ringBuf{slots: make([]atomic.Pointer[Span], capacity)}
}

var (
	enabled atomic.Bool
	ring    atomic.Pointer[ringBuf]
	stages  sync.Map // stage name -> *stageAgg
)

func init() { ring.Store(newRing(DefaultCapacity)) }

// stageAgg accumulates per-stage duration statistics: count, item total,
// duration sum/max, and a log-bucketed histogram for percentiles.
type stageAgg struct {
	count atomic.Int64
	items atomic.Int64
	sum   atomic.Int64 // nanoseconds
	max   atomic.Int64 // nanoseconds
	hist  *telemetry.Histogram
}

func stageFor(name string) *stageAgg {
	if v, ok := stages.Load(name); ok {
		return v.(*stageAgg)
	}
	v, _ := stages.LoadOrStore(name, &stageAgg{hist: telemetry.NewHistogram(telemetry.LatencyBuckets)})
	return v.(*stageAgg)
}

// Enable turns the flight recorder on. The daemon enables it at startup;
// batch CLIs enable it behind -trace.
func Enable() { enabled.Store(true) }

// Disable turns the flight recorder off; in-flight Active tokens become
// no-ops at End.
func Disable() { enabled.Store(false) }

// Enabled reports whether spans are being recorded: one atomic load, the
// entire disabled-path cost.
func Enabled() bool { return enabled.Load() }

// SetCapacity replaces the span ring with an empty one of the given
// capacity (min 64). Setup-path only: spans recorded concurrently with the
// swap may land in either ring.
func SetCapacity(capacity int) { ring.Store(newRing(capacity)) }

// Reset clears the ring and all stage aggregates (tests, or a CLI starting
// a fresh measurement).
func Reset() {
	ring.Store(newRing(len(ring.Load().slots)))
	stages.Range(func(k, _ any) bool { stages.Delete(k); return true })
}

func record(sp *Span) {
	rb := ring.Load()
	idx := rb.head.Add(1) - 1
	rb.slots[idx%uint64(len(rb.slots))].Store(sp)
	agg := stageFor(sp.Stage)
	agg.count.Add(1)
	agg.items.Add(sp.N)
	agg.sum.Add(sp.Dur)
	for {
		old := agg.max.Load()
		if sp.Dur <= old || agg.max.CompareAndSwap(old, sp.Dur) {
			break
		}
	}
	agg.hist.Observe(float64(sp.Dur) / 1e9)
}

// Active is a begun span: a stack-allocated token, not a pointer. The zero
// Active (returned by Begin when disabled) makes End a no-op.
type Active struct {
	stage string
	run   string
	start int64
}

// Begin starts a span for stage (run may be ""). When the recorder is
// disabled this is one atomic load and returns an inert token.
func Begin(stage, run string) Active {
	if !enabled.Load() {
		return Active{}
	}
	return Active{stage: stage, run: run, start: time.Now().UnixNano()}
}

// Live reports whether the token will record on End — for call sites that
// want to skip computing N/attr when tracing is off.
func (a Active) Live() bool { return a.start != 0 }

// End records the span with payload count n and attribute attr. No-op on
// an inert token or if the recorder was disabled after Begin.
func (a Active) End(n int64, attr string) {
	if a.start == 0 || !enabled.Load() {
		return
	}
	record(&Span{Stage: a.stage, Run: a.run, Start: a.start, Dur: time.Now().UnixNano() - a.start, N: n, Attr: attr})
}

// Record logs a span whose timing was measured externally (e.g. a replay
// RTT sample, where the duration is the transport's own estimate).
func Record(stage, run string, start time.Time, dur time.Duration, n int64, attr string) {
	if !enabled.Load() {
		return
	}
	record(&Span{Stage: stage, Run: run, Start: start.UnixNano(), Dur: int64(dur), N: n, Attr: attr})
}

// Snapshot returns up to max of the most recent spans, oldest first. It
// reads concurrently with writers; spans overwritten mid-read appear as
// their newer replacement.
func Snapshot(max int) []Span {
	rb := ring.Load()
	head := rb.head.Load()
	n := uint64(len(rb.slots))
	if head < n {
		n = head
	}
	if max > 0 && uint64(max) < n {
		n = uint64(max)
	}
	out := make([]Span, 0, n)
	for i := head - n; i < head; i++ {
		if p := rb.slots[i%uint64(len(rb.slots))].Load(); p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// StageStats is the rendered aggregate for one stage.
type StageStats struct {
	Stage    string  `json:"stage"`
	Count    int64   `json:"count"`
	Items    int64   `json:"items,omitempty"` // sum of span N payloads
	TotalSec float64 `json:"total_sec"`
	MeanSec  float64 `json:"mean_sec"`
	MaxSec   float64 `json:"max_sec"`
	P50Sec   float64 `json:"p50_sec"`
	P95Sec   float64 `json:"p95_sec"`
	P99Sec   float64 `json:"p99_sec"`
}

// Stages returns per-stage aggregates sorted by stage name.
func Stages() []StageStats {
	var out []StageStats
	stages.Range(func(k, v any) bool {
		agg := v.(*stageAgg)
		n := agg.count.Load()
		if n == 0 {
			return true
		}
		st := StageStats{
			Stage:    k.(string),
			Count:    n,
			Items:    agg.items.Load(),
			TotalSec: float64(agg.sum.Load()) / 1e9,
			MaxSec:   float64(agg.max.Load()) / 1e9,
			P50Sec:   agg.hist.Quantile(0.50),
			P95Sec:   agg.hist.Quantile(0.95),
			P99Sec:   agg.hist.Quantile(0.99),
		}
		st.MeanSec = st.TotalSec / float64(n)
		out = append(out, st)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Stage < out[j].Stage })
	return out
}

func fmtDur(sec float64) string {
	return time.Duration(sec * 1e9).Round(time.Microsecond).String()
}

// Summary renders the per-stage aggregates as an aligned text table — what
// the batch CLIs print to stderr under -trace.
func Summary() string {
	sts := Stages()
	if len(sts) == 0 {
		return "tracez: no spans recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %12s %12s %12s %12s %12s %12s\n",
		"stage", "count", "items", "total", "mean", "p95", "p99", "max")
	for _, st := range sts {
		fmt.Fprintf(&b, "%-20s %10d %12d %12s %12s %12s %12s %12s\n",
			st.Stage, st.Count, st.Items,
			fmtDur(st.TotalSec), fmtDur(st.MeanSec),
			fmtDur(st.P95Sec), fmtDur(st.P99Sec), fmtDur(st.MaxSec))
	}
	return b.String()
}

// Handler serves the flight recorder as JSON: {enabled, capacity, stages,
// spans}. ?n= caps the span count (default 256, max the ring capacity).
func Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		n := 256
		if s := req.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		resp := struct {
			Enabled  bool         `json:"enabled"`
			Capacity int          `json:"capacity"`
			Stages   []StageStats `json:"stages"`
			Spans    []Span       `json:"spans"`
		}{
			Enabled:  Enabled(),
			Capacity: len(ring.Load().slots),
			Stages:   Stages(),
			Spans:    Snapshot(n),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
	})
}
