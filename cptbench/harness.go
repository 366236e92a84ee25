package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cptgpt/internal/tensor"
	"cptgpt/internal/tracez"
)

// workload is one named set of inputs. The harness owns timing; a workload
// owns its inputs, its rounds and its correctness checks.
type workload interface {
	// setup builds everything the timed rounds depend on, from e.seed. The
	// harness calls it setupRepeats times with a teardown between and
	// reports their lower quartile as setup_s.
	setup(e *env) error
	setupRepeats() int
	teardown(e *env)
	// round runs one unit of timed work. traced turns the program's own
	// tracing on for this round; the harness spans are always recorded.
	round(e *env, traced bool) (roundOut, error)
	// layers adds the workload's per-layer metrics once measuring is over;
	// traced is the number of traced rounds the sums cover.
	layers(e *env, traced int, m map[string]float64)
}

// roundOut is what one round delivered.
type roundOut struct {
	events int64  // work units: events delivered (tokens for train-epoch)
	digest uint64 // output digest, equal on every round of a run
	// wall overrides the harness-measured round wall when the workload has
	// a better clock for the timed region (the daemon's finished_at).
	wall time.Duration
}

// stager lets a workload supply the tracez stage aggregates from somewhere
// other than this process's tracez package (the daemon's /debug/trace).
type stager interface {
	stages(e *env) ([]tracez.StageStats, error)
}

// env carries one run's arguments and collects its spans and checks.
type env struct {
	seed    uint64
	scale   float64
	seconds float64
	trace   bool
	verbose bool   // print one line per round to standard error
	setups  int    // overrides the workload's setupRepeats when > 0 (tests)
	tmp     string // scratch directory inside the checkout, removed at exit

	spans  spanLog
	checks []check
	// attempted and failed count operations: delivered events, HTTP calls
	// (also from the prober's goroutine) and correctness checks.
	attempted, failed atomic.Int64
	// root is the harness span the current phase hangs under.
	root int
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// check records a correctness check as one attempted operation.
func (e *env) check(name string, ok bool, format string, args ...any) {
	e.attempted.Add(1)
	if !ok {
		e.failed.Add(1)
	}
	for i := range e.checks {
		if e.checks[i].Name == name {
			// Keep the first failure; otherwise show the latest pass.
			if e.checks[i].OK {
				e.checks[i] = check{name, ok, fmt.Sprintf(format, args...)}
			}
			return
		}
	}
	e.checks = append(e.checks, check{name, ok, fmt.Sprintf(format, args...)})
}

// scaled sizes a reference population by -scale, never below lo.
func (e *env) scaled(n, lo int) int {
	return max(lo, int(math.Round(float64(n)*e.scale)))
}

// span is one harness span: a call into the program, named after the
// package it enters.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's epoch
	End    int64  `json:"end_ns"`
}

type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func (l *spanLog) begin(parent int, name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(l.epoch))})
	return id
}

func (l *spanLog) end(id int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &l.spans[id-1]
	s.End = int64(time.Since(l.epoch))
	return time.Duration(s.End - s.Start)
}

// in runs fn inside a span and returns how long it took.
func (l *spanLog) in(parent int, name string, fn func(id int) error) (time.Duration, error) {
	id := l.begin(parent, name)
	err := fn(id)
	return l.end(id), err
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := make(map[int][][2]int64)
	for _, s := range l.spans {
		kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
	}
	out := make(map[string]time.Duration)
	for _, s := range l.spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(kids[s.ID], s.Start, s.End))
	}
	return out
}

// covered returns how much of [lo, hi) the intervals cover.
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	at := lo
	for _, x := range iv {
		a, b := max(x[0], at), min(x[1], hi)
		if b > a {
			total += b - a
			at = b
		}
	}
	return total
}

// procSample is a point-in-time reading of the process's resource counters.
type procSample struct {
	user, sys float64 // CPU seconds
	maxRSSMB  float64
	mem       runtime.MemStats
	pool      tensor.PoolLoadStats
}

func cpuSeconds() (user, sys float64, maxRSSMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime), tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sampleProc() procSample {
	var p procSample
	p.user, p.sys, p.maxRSSMB = cpuSeconds()
	runtime.ReadMemStats(&p.mem)
	p.pool = tensor.PoolLoad()
	return p
}

// result is one run of one workload, as printed and as stored in a
// trajectory file.
type result struct {
	Workload  string                 `json:"workload,omitempty"`
	Trace     int                    `json:"trace"`
	Seed      uint64                 `json:"seed"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Checks    []check                `json:"checks,omitempty"`
	Digest    string                 `json:"digest,omitempty"`
	// endToEnd holds the end-to-end readings of a traced run, which reports
	// the per-layer metrics: shown for orientation, never compared.
	endToEnd map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// median returns the middle of xs (mean of the two middles), 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantileOf returns the q-quantile of xs by linear interpolation.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// roundStat is the harness's own measurement of one round.
type roundStat struct {
	traced bool
	wall   float64 // seconds
	cpu    float64 // user+sys seconds
	events int64
}

// run measures one workload: repeated set-up, then rounds until e.seconds
// of timed region have passed. An untraced run reports the end-to-end
// metrics. A traced run traces every other round, so that the untraced
// rounds between them give tracez.overhead_share under the same machine
// conditions, and reports the per-layer metrics.
//
// The sandbox this runs on drops to half speed for a second or two at a
// time, several times a minute, on both cores at once, and does not report
// it as steal. A run therefore makes many short rounds (0.2–1 s) and
// reports the decile on the good side of each timing (the 90th percentile
// of rates, the 10th of CPU per event): it holds still as long as a tenth
// of a run's rounds were undisturbed, where a median needs half of them.
func run(name string, w workload, e *env) (result, error) {
	e.spans.epoch = time.Now()
	res := result{Workload: name, Seed: e.seed, Metrics: map[string]metricValue{}}
	if e.trace {
		res.Trace = 1
	}

	repeats := w.setupRepeats()
	if e.setups > 0 {
		repeats = e.setups
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		if i > 0 {
			w.teardown(e)
		}
		id := e.spans.begin(0, "setup")
		e.root = id
		err := w.setup(e)
		setups = append(setups, e.spans.end(id).Seconds())
		if err != nil {
			w.teardown(e)
			return res, fmt.Errorf("%s: setup: %w", name, err)
		}
	}
	defer w.teardown(e)

	stagesOf := func() ([]tracez.StageStats, error) { return tracez.Stages(), nil }
	if s, ok := w.(stager); ok {
		stagesOf = func() ([]tracez.StageStats, error) { return s.stages(e) }
	}
	if e.trace {
		// One round's program spans must fit the flight recorder for the
		// unattributed-share reading; the default ring is sized for a daemon.
		tracez.SetCapacity(1 << 16)
	}

	var (
		rounds       []roundStat
		digest       uint64
		tr           tracedSums
		unattributed []float64
	)
	start := sampleProc()
	measured := 0.0
	for {
		// Every round starts from a collected heap, so one round's garbage
		// is not the next one's GC pause or peak RSS.
		runtime.GC()
		// A traced run alternates: even rounds untraced, odd rounds traced.
		traced := e.trace && len(rounds)%2 == 1
		var stagesBefore []tracez.StageStats
		var before procSample
		if traced {
			var err error
			if stagesBefore, err = stagesOf(); err != nil {
				return res, fmt.Errorf("%s: reading stages: %w", name, err)
			}
			before = sampleProc()
		}
		id := e.spans.begin(0, "round")
		e.root = id
		u0, s0, _ := cpuSeconds()
		t0 := time.Now()
		out, err := w.round(e, traced)
		wall := time.Since(t0)
		u1, s1, _ := cpuSeconds()
		e.spans.end(id)
		if err != nil {
			return res, fmt.Errorf("%s: round %d: %w", name, len(rounds), err)
		}
		if out.wall > 0 {
			wall = out.wall
		}
		if traced {
			after := sampleProc()
			stagesAfter, err := stagesOf()
			if err != nil {
				return res, fmt.Errorf("%s: reading stages: %w", name, err)
			}
			tr.add(stageDelta(stagesBefore, stagesAfter), before, after, out.events)
			unattributed = append(unattributed, unattributedShare(t0, wall))
		}
		if len(rounds) == 0 {
			digest = out.digest
		}
		e.check("round.digest_stable", out.digest == digest, "round %d digest %016x, first round %016x", len(rounds), out.digest, digest)
		e.check("round.events_positive", out.events > 0, "round %d delivered %d events", len(rounds), out.events)
		e.attempted.Add(out.events)
		rounds = append(rounds, roundStat{traced: traced, wall: wall.Seconds(), cpu: u1 - u0 + s1 - s0, events: out.events})
		if e.verbose {
			r := rounds[len(rounds)-1]
			fmt.Fprintf(os.Stderr, "round %2d at %6.2fs  wall %.3fs  cpu %.3fs  %d events  %.6g/s\n",
				len(rounds)-1, time.Since(e.spans.epoch).Seconds(), r.wall, r.cpu, r.events, float64(r.events)/r.wall)
		}
		measured += wall.Seconds()
		// Stop where the total lands closest to the asked-for seconds; a
		// traced run needs at least one traced round.
		if measured+wall.Seconds()/2 >= e.seconds && (!e.trace || len(rounds) > 1) {
			break
		}
	}
	end := sampleProc()
	res.Digest = fmt.Sprintf("%016x", digest)

	var perSec, cpuPerM []float64
	var walls [2][]float64 // untraced, traced
	for _, r := range rounds {
		perSec = append(perSec, float64(r.events)/r.wall)
		cpuPerM = append(cpuPerM, r.cpu/float64(r.events)*1e6)
		if r.traced {
			walls[1] = append(walls[1], r.wall)
		} else {
			walls[0] = append(walls[0], r.wall)
		}
	}
	m := map[string]float64{
		"setup_s":      quantileOf(setups, 0.25),
		"events_per_s": quantileOf(perSec, 0.90),
		"peak_rss_mb":  end.maxRSSMB,
	}
	if e.trace {
		res.endToEnd = m
		m = map[string]float64{}
		for _, d := range perLayer {
			m[d.Name] = 0
		}
		stageMetrics(m, tr.stages, tr.rounds, tr.events)
		w.layers(e, tr.rounds, m)

		m["tracez.overhead_share"] = quantileOf(walls[1], 0.10)/quantileOf(walls[0], 0.10) - 1
		m["tracez.unattributed_share"] = median(unattributed)
		m["proc.peak_rss_mb"] = end.maxRSSMB
		m["proc.cpu_s_per_mevent"] = quantileOf(cpuPerM, 0.10)
		m["proc.cpu_user_s"] = end.user - start.user
		m["proc.cpu_sys_s"] = end.sys - start.sys
		m["proc.gc_cycles"] = float64(end.mem.NumGC - start.mem.NumGC)
		m["proc.gc_pause_total_ms"] = float64(end.mem.PauseTotalNs-start.mem.PauseTotalNs) / 1e6
		m["proc.heap_peak_mb"] = float64(end.mem.HeapSys) / 1e6
		m["proc.allocs_per_event"] = float64(tr.mallocs) / float64(tr.events)
		m["proc.alloc_bytes_per_event"] = float64(tr.allocBytes) / float64(tr.events)
		if tr.polls > 0 {
			m["tensor.pool_items_per_poll"] = float64(tr.poolItems) / float64(tr.polls)
		}
		if tr.polls+tr.emptyPolls > 0 {
			m["tensor.pool_empty_poll_share"] = float64(tr.emptyPolls) / float64(tr.polls+tr.emptyPolls)
		}
		m["bench.rounds"] = float64(len(rounds))
		m["bench.failed_share"] = float64(e.failed.Load()) / float64(max(e.attempted.Load(), 1))
	}

	defs := endToEnd
	if e.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			e.check("metric."+d.Name, false, "no finite value (%v)", v)
			v = 0
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	res.Attempted, res.Failed = e.attempted.Load(), e.failed.Load()
	res.Correct = res.Failed == 0
	res.Checks = e.checks
	return res, nil
}

// unattributedShare is the share of the round's wall that no program span
// in the flight recorder covers: time the program spent somewhere it does
// not instrument.
func unattributedShare(t0 time.Time, wall time.Duration) float64 {
	lo := t0.UnixNano()
	hi := lo + int64(wall)
	var iv [][2]int64
	for _, sp := range tracez.Snapshot(1 << 16) {
		if sp.Start+sp.Dur > lo && sp.Start < hi {
			iv = append(iv, [2]int64{sp.Start, sp.Start + sp.Dur})
		}
	}
	return 1 - float64(covered(iv, lo, hi))/float64(wall)
}

// tracedSums accumulates what the traced rounds of a run did: the stage
// aggregates they added, their allocations and their worker-pool load.
type tracedSums struct {
	rounds                       int
	events                       int64
	stages                       map[string]tracez.StageStats
	mallocs, allocBytes          uint64
	polls, emptyPolls, poolItems int64
}

func (t *tracedSums) add(stages map[string]tracez.StageStats, before, after procSample, events int64) {
	if t.stages == nil {
		t.stages = map[string]tracez.StageStats{}
	}
	for name, d := range stages {
		sum := t.stages[name]
		sum.Count += d.Count
		sum.Items += d.Items
		sum.TotalSec += d.TotalSec
		t.stages[name] = sum
	}
	t.rounds++
	t.events += events
	t.mallocs += after.mem.Mallocs - before.mem.Mallocs
	t.allocBytes += after.mem.TotalAlloc - before.mem.TotalAlloc
	t.polls += after.pool.ValidPolls - before.pool.ValidPolls
	t.emptyPolls += after.pool.EmptyPolls - before.pool.EmptyPolls
	t.poolItems += after.pool.Items - before.pool.Items
}

// stageDelta subtracts two tracez aggregate snapshots, by stage name.
func stageDelta(before, after []tracez.StageStats) map[string]tracez.StageStats {
	out := make(map[string]tracez.StageStats, len(after))
	for _, a := range after {
		out[a.Stage] = a
	}
	for _, b := range before {
		if a, ok := out[b.Stage]; ok {
			a.Count -= b.Count
			a.Items -= b.Items
			a.TotalSec -= b.TotalSec
			out[b.Stage] = a
		}
	}
	return out
}

// stageMetrics turns the traced rounds' stage aggregates into per-round
// per-layer metrics.
func stageMetrics(m map[string]float64, d map[string]tracez.StageStats, rounds int, events int64) {
	n := float64(rounds)
	busy := func(stage string) float64 { return d[stage].TotalSec / n }
	m["scenario.source_busy_s"] = busy(tracez.StageScenarioSource)
	m["scenario.ops_busy_s"] = busy(tracez.StageScenarioOps)
	m["scenario.spill_busy_s"] = busy(tracez.StageScenarioSpill)
	m["scenario.merge_s"] = busy(tracez.StageScenarioMerge)
	m["scenario.merge_passes"] = float64(d[tracez.StageScenarioMerge].Count) / n
	m["scenario.sink_s"] = busy(tracez.StageScenarioSink)
	if events > 0 {
		m["scenario.merge_amplification"] = float64(d[tracez.StageScenarioMerge].Items) / float64(events)
	}
	m["scenario.pacer_wait_count"] = float64(d[tracez.StagePacerWait].Count) / n
	m["runlog.append_busy_s"] = busy(tracez.StageRunlogAppend)
	m["served.generate_s"] = busy(tracez.StageRunGenerate)
	m["served.stream_s"] = busy(tracez.StageRunStream)
}

// writeTrace stores the run's harness spans, and the program spans still in
// the flight recorder, next to the results.
func writeTrace(dir, name string, e *env) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type programSpan struct {
		Stage string `json:"stage"`
		Start int64  `json:"start_ns"`
		Dur   int64  `json:"dur_ns"`
		N     int64  `json:"n,omitempty"`
	}
	epoch := e.spans.epoch.UnixNano()
	prog := []programSpan{}
	// The file is evidence, not an archive: keep the most recent spans.
	for _, sp := range tracez.Snapshot(2048) {
		prog = append(prog, programSpan{sp.Stage, sp.Start - epoch, sp.Dur, sp.N})
	}
	self := map[string]float64{}
	for k, v := range e.spans.selfTimes() {
		self[k] = v.Seconds()
	}
	doc := struct {
		Workload     string             `json:"workload"`
		Seed         uint64             `json:"seed"`
		SelfSeconds  map[string]float64 `json:"self_seconds"`
		Spans        []span             `json:"spans"`
		ProgramSpans []programSpan      `json:"program_spans"`
	}{name, e.seed, self, e.spans.spans, prog}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+name+".json"), append(b, '\n'), 0o644)
}
