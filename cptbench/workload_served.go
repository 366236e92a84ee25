package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cptgpt/internal/events"
	"cptgpt/internal/replaynet"
	"cptgpt/internal/scenario"
	"cptgpt/internal/served"
	"cptgpt/internal/tracez"
)

// daemon is cptserved's core behind a real loopback listener, journaling
// on, driven over HTTP exactly as an operator would. Two client
// connections, never more than the sandbox has cores: one submits and polls
// the run, the other probes the live telemetry while the run is hot.
type daemon struct {
	srv        *served.Server
	hs         *http.Server
	served     chan struct{} // closed when hs.Serve has returned
	base       string
	journalDir string
	ctl, probe *http.Client
}

func startDaemon(e *env) (*daemon, error) {
	jd, err := os.MkdirTemp(e.tmp, "journal-")
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:        served.New(served.Options{TempDir: e.tmp, JournalDir: jd}),
		served:     make(chan struct{}),
		base:       "http://" + ln.Addr().String(),
		journalDir: jd,
		ctl:        &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
		probe:      &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
	}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns ErrServerClosed at stop
	}()
	return d, nil
}

func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	_ = d.srv.Close(ctx)
	_ = d.hs.Shutdown(ctx)
	<-d.served
	d.ctl.CloseIdleConnections()
	d.probe.CloseIdleConnections()
}

// call makes one HTTP request inside a harness span and counts it as an
// attempted operation, failed unless it answers 2xx.
func (d *daemon) call(e *env, c *http.Client, parent int, span, method, path string, body any) ([]byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, 0, err
		}
		rd = bytes.NewReader(b)
	}
	var raw []byte
	e.attempted.Add(1)
	dur, err := e.spans.in(parent, span, func(int) error {
		req, err := http.NewRequest(method, d.base+path, rd)
		if err != nil {
			return err
		}
		resp, err := c.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if raw, err = io.ReadAll(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
		}
		return nil
	})
	if err != nil {
		e.failed.Add(1)
	}
	return raw, dur, err
}

// apiStats are the latencies the prober saw, in milliseconds.
type apiStats struct {
	mu           sync.Mutex
	stats, metr  []float64
	metricsBytes int
}

// probeWhileHot scrapes /runs/{id}/stats and /metrics at 4 Hz on the second
// connection until stop closes: what an operator's dashboard does to a
// daemon that is busy generating.
func (d *daemon) probeWhileHot(e *env, parent int, id string, a *apiStats, stop <-chan struct{}) {
	tick := time.NewTicker(250 * time.Millisecond)
	defer tick.Stop()
	for {
		for _, p := range []struct {
			span, path string
			into       *[]float64
		}{
			{"served GET /runs/{id}/stats", "/runs/" + id + "/stats", &a.stats},
			{"served GET /metrics", "/metrics", &a.metr},
		} {
			raw, dur, err := d.call(e, d.probe, parent, p.span, http.MethodGet, p.path, nil)
			if err != nil {
				continue // counted as a failed operation by call
			}
			a.mu.Lock()
			*p.into = append(*p.into, float64(dur)/1e6)
			if p.path == "/metrics" {
				a.metricsBytes = len(raw)
			}
			a.mu.Unlock()
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// runOutcome is what one submitted run came to.
type runOutcome struct {
	id     string
	info   served.RunInfo
	wall   time.Duration // POST sent → the daemon's finished_at
	postMs float64
	// stages is what the run added to the daemon's stage aggregates.
	stages map[string]tracez.StageStats
}

// submit posts a run, polls it at 10 Hz to a terminal state with the prober
// running beside it, and returns the daemon's own account of it.
func (d *daemon) submit(e *env, req served.StartRequest, a *apiStats) (runOutcome, error) {
	var out runOutcome
	stBefore, err := d.stages(e)
	if err != nil {
		return out, err
	}
	sent := time.Now()
	raw, post, err := d.call(e, d.ctl, e.root, "served POST /runs", http.MethodPost, "/runs", req)
	if err != nil {
		return out, err
	}
	out.postMs = float64(post) / 1e6
	if err := json.Unmarshal(raw, &out.info); err != nil {
		return out, err
	}
	out.id = out.info.ID

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if a != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.probeWhileHot(e, e.root, out.id, a, stop)
		}()
	}
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(150 * time.Second)
	for err == nil {
		select {
		case <-deadline:
			err = fmt.Errorf("run %s still %s after 150s", out.id, out.info.State)
			continue
		case <-tick.C:
		}
		raw, _, err = d.call(e, d.ctl, e.root, "served GET /runs/{id}", http.MethodGet, "/runs/"+out.id, nil)
		if err != nil {
			break
		}
		if err = json.Unmarshal(raw, &out.info); err != nil {
			break
		}
		if out.info.FinishedAt != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return out, err
	}
	out.wall = out.info.FinishedAt.Sub(sent)
	e.check("served.state_done", out.info.State == served.StateDone, "run %s ended %s: %s", out.id, out.info.State, out.info.Error)
	// The run goroutine publishes finished_at before its deferred run.stream
	// span ends, so the stage aggregates can trail the terminal state by a
	// scheduling quantum: wait for the span rather than read a stale delta.
	for settle := time.Now(); ; time.Sleep(5 * time.Millisecond) {
		stAfter, err := d.stages(e)
		if err != nil {
			return out, err
		}
		out.stages = stageDelta(stBefore, stAfter)
		if out.stages[tracez.StageRunStream].Count > 0 || out.info.State != served.StateDone || time.Since(settle) > 10*time.Second {
			break
		}
	}
	e.check("served.stream_span_recorded", out.stages[tracez.StageRunStream].Count > 0, "run %s ended %s: %d run.stream spans within 10s", out.id, out.info.State, out.stages[tracez.StageRunStream].Count)
	return out, nil
}

// discard deletes a finished run's history and checks its journal went
// with it.
func (d *daemon) discard(e *env, id string) {
	_, _, err := d.call(e, d.ctl, e.root, "served DELETE /runs/{id}", http.MethodDelete, "/runs/"+id, nil)
	left, _ := filepath.Glob(filepath.Join(d.journalDir, "*.runlog"))
	e.check("served.journal_reaped", err == nil && len(left) == 0, "%d journals left after DELETE (%v)", len(left), err)
}

// resultInt reads an integer field of a run's result object.
func resultInt(info served.RunInfo, key string) int64 {
	f, _ := info.Result[key].(float64)
	return int64(f)
}

// servedRun is the shared body of the two daemon workloads.
type servedRun struct {
	d    *daemon
	spec *scenario.Spec
	api  apiStats

	// sums over traced rounds
	postMs         float64
	journal        [4]float64 // appends, fsyncs, bytes, errors
	retries, shed  float64
	lagP50, lagP99 float64
	synthUEs       float64
}

func (w *servedRun) setupRepeats() int { return 5 }

func (w *servedRun) teardown(*env) {
	if w.d != nil {
		w.d.stop()
		w.d = nil
	}
}

func (w *servedRun) setup(e *env) (err error) {
	if w.spec, err = flashCrowd(e.seed); err != nil {
		return err
	}
	if w.d, err = startDaemon(e); err != nil {
		return err
	}
	// The daemon's first run pays its lazy costs; a long-lived daemon has.
	out, err := w.d.submit(e, served.StartRequest{Spec: w.spec, UEs: e.scaled(2000, 100), Sink: "count"}, nil)
	if err != nil {
		return err
	}
	w.d.discard(e, out.id)
	return nil
}

func (w *servedRun) stages(e *env) ([]tracez.StageStats, error) { return w.d.stages(e) }

// stages reads the daemon's stage aggregates where an operator would.
func (d *daemon) stages(e *env) ([]tracez.StageStats, error) {
	raw, _, err := d.call(e, d.ctl, 0, "served GET /debug/trace", http.MethodGet, "/debug/trace?n=1", nil)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Stages []tracez.StageStats `json:"stages"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, err
	}
	return doc.Stages, nil
}

var journalSeries = [4]string{
	"cptserved_journal_appends_total", "cptserved_journal_fsyncs_total",
	"cptserved_journal_bytes_total", "cptserved_journal_errors_total",
}

// scrape reads /metrics once on the control connection.
func (w *servedRun) scrape(e *env) ([]promSample, error) {
	raw, _, err := w.d.call(e, w.d.ctl, e.root, "served GET /metrics", http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	return parseProm(string(raw)), nil
}

// after folds a finished traced round's daemon-side counters into the
// sums: the journal deltas since before, the run's pacer-lag histogram, and
// the run's final stats, which it returns.
func (w *servedRun) after(e *env, out runOutcome, ues int, before []promSample) (st served.RunStats, after []promSample, err error) {
	if after, err = w.scrape(e); err != nil {
		return st, nil, err
	}
	for i, name := range journalSeries {
		w.journal[i] += promValue(after, name, nil) - promValue(before, name, nil)
	}
	lag := promHistogram(after, "cptserved_pacer_lag_seconds", map[string]string{"run": out.id})
	w.lagP50 += 1e3 * bucketQuantile(0.50, lag)
	w.lagP99 += 1e3 * bucketQuantile(0.99, lag)
	raw, _, err := w.d.call(e, w.d.ctl, e.root, "served GET /runs/{id}/stats", http.MethodGet, "/runs/"+out.id+"/stats", nil)
	if err != nil {
		return st, nil, err
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, nil, err
	}
	w.postMs += out.postMs
	w.retries += float64(st.SinkRetries)
	w.shed += float64(st.ShedEvents)
	w.synthUEs += float64(ues)
	return st, after, nil
}

func (w *servedRun) layers(e *env, traced int, m map[string]float64) {
	n := float64(traced)
	m["served.post_ms"] = w.postMs / n
	m["runlog.appends"] = w.journal[0] / n
	m["runlog.fsyncs"] = w.journal[1] / n
	m["runlog.bytes"] = w.journal[2] / n
	m["runlog.errors"] = w.journal[3] / n
	m["served.sink_retries"] = w.retries / n
	m["scenario.pacer_shed_events"] = w.shed / n
	m["scenario.pacer_lag_p50_ms"] = w.lagP50 / n
	m["scenario.pacer_lag_p99_ms"] = w.lagP99 / n
	all := append(append([]float64(nil), w.api.stats...), w.api.metr...)
	m["served.stats_get_p50_ms"] = median(w.api.stats)
	m["served.metrics_scrape_p50_ms"] = median(w.api.metr)
	m["served.api_p50_ms"] = median(all)
	m["served.api_p90_ms"] = quantileOf(all, 0.90)
	m["served.metrics_bytes"] = float64(w.api.metricsBytes)
	m["synthetic.source_us_per_ue"] = m["scenario.source_busy_s"] * 1e6 * n / w.synthUEs
}

// servedJSONL writes an unpaced flash-crowd run to a JSONL file through
// the daemon: sink-bound (line encoding), with the journal's checkpoint
// flush+fsync of the output every 4096 events, under API load.
type servedJSONL struct {
	servedRun
	seq int
}

func (w *servedJSONL) round(e *env, traced bool) (roundOut, error) {
	ues := e.scaled(5000, 200)
	w.seq++
	path := filepath.Join(e.tmp, fmt.Sprintf("out-%d.jsonl", w.seq))
	defer os.Remove(path)
	var before []promSample
	var err error
	if traced {
		if before, err = w.scrape(e); err != nil {
			return roundOut{}, err
		}
	}
	out, err := w.d.submit(e, served.StartRequest{Spec: w.spec, UEs: ues, Sink: "jsonl", Out: path}, &w.api)
	if err != nil {
		return roundOut{}, err
	}
	n := resultInt(out.info, "events")
	lines, crc, err := countLines(path)
	if err != nil {
		return roundOut{}, err
	}
	e.check("jsonl.lines_equal_events", lines == n, "file has %d lines, result.events = %d", lines, n)
	if traced {
		if _, _, err := w.after(e, out, ues, before); err != nil {
			return roundOut{}, err
		}
	}
	w.d.discard(e, out.id)
	return roundOut{events: n, digest: uint64(crc), wall: out.wall}, nil
}

// countLines returns the file's line count and CRC-32C in one pass.
func countLines(path string) (lines int64, crc uint32, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	tab := crc32.MakeTable(crc32.Castagnoli)
	buf := make([]byte, 1<<20)
	for {
		n, err := f.Read(buf)
		lines += int64(bytes.Count(buf[:n], []byte{'\n'}))
		crc = crc32.Update(crc, tab, buf[:n])
		if errors.Is(err, io.EOF) {
			return lines, crc, nil
		}
		if err != nil {
			return 0, 0, err
		}
	}
}

// servedPacedReplay plays flash-crowd at a fixed offered rate into a
// closed-loop replay server: an open-loop schedule well under wire
// capacity, so the pacer fixes the wall time and per-event cost shows as
// CPU, timing fidelity as pacer lag and ACK latency.
type servedPacedReplay struct {
	servedRun

	// sums over traced rounds
	sent, acked, retx, reconn, dups float64
	srttMs, cwnd                    float64
	ackMean, ackP50, ackP99         float64
	applied, rejected               float64
}

// pacedRoundSeconds is the wall one paced round's streaming phase takes at
// scale 1; the compression factor follows from it.
const (
	pacedRoundSeconds = 1.0
	horizonSec        = 3600
)

func (w *servedPacedReplay) round(e *env, traced bool) (roundOut, error) {
	// 3900 UEs of flash-crowd are ≈127k events: ≈127k events/s mean over
	// 1 s, with the scenario's 6× spike on top.
	ues := e.scaled(3900, 100)
	compression := horizonSec / (pacedRoundSeconds * e.scale)
	rs, err := replaynet.ListenAndServe("127.0.0.1:0", events.Gen4G)
	if err != nil {
		return roundOut{}, err
	}
	defer rs.Close()

	var before []promSample
	if traced {
		if before, err = w.scrape(e); err != nil {
			return roundOut{}, err
		}
	}
	out, err := w.d.submit(e, served.StartRequest{
		Spec: w.spec, UEs: ues, Sink: "replay", Addr: rs.Addr().String(),
		ClosedLoop: true, Compression: compression,
	}, &w.api)
	if err != nil {
		return roundOut{}, err
	}
	applied, sent, acked := resultInt(out.info, "events"), resultInt(out.info, "sent"), resultInt(out.info, "acked")
	e.check("replay.applied_equals_sent", applied == sent && sent == acked, "server applied %d, sent %d, acked %d", applied, sent, acked)
	// Retransmits, reconnects and suppressed duplicates are the transport
	// doing its job when this sandbox stalls past the 100 ms minimum RTO;
	// they are reported per layer. What must hold is exactly-once delivery.
	dup, retx, reconn := resultInt(out.info, "duplicates"), resultInt(out.info, "retransmits"), resultInt(out.info, "reconnects")
	srv := rs.Snapshot()
	e.check("replay.server_count", int64(srv.Events) == applied, "server snapshot has %d events, result %d", srv.Events, applied)

	// The pacer fixes the streaming wall: trace horizon over compression.
	// Early would be the pacer failing. Late is this machine stalling, not a
	// wrong output: it shows as a slow round, as pacer lag and as ACK latency.
	stream := out.stages[tracez.StageRunStream].TotalSec
	want := horizonSec / compression
	e.check("replay.held_to_schedule", stream >= 0.95*want, "streaming took %.3fs, schedule %.3fs", stream, want)

	if traced {
		st, after, err := w.after(e, out, ues, before)
		if err != nil {
			return roundOut{}, err
		}
		rtt := promHistogram(after, "cptserved_replay_rtt_seconds", map[string]string{"run": out.id})
		w.ackP50 += 1e3 * bucketQuantile(0.50, rtt)
		w.ackP99 += 1e3 * bucketQuantile(0.99, rtt)
		mean, _ := out.info.Result["latency_mean_ms"].(float64)
		w.ackMean += mean
		if st.Replay != nil {
			w.srttMs += st.Replay.SRTTMs
			w.cwnd += float64(st.Replay.Cwnd)
		}
		w.sent += float64(sent)
		w.acked += float64(acked)
		w.retx += float64(retx)
		w.reconn += float64(reconn)
		w.dups += float64(dup)
		w.applied += float64(applied)
		w.rejected += float64(srv.Rejected)
	}
	w.d.discard(e, out.id)

	digest := mix(mix(0, uint64(srv.Events)), uint64(srv.Rejected))
	return roundOut{events: applied, digest: digest, wall: out.wall}, nil
}

func (w *servedPacedReplay) layers(e *env, traced int, m map[string]float64) {
	w.servedRun.layers(e, traced, m)
	n := float64(traced)
	m["replaynet.sent"] = w.sent / n
	m["replaynet.acked"] = w.acked / n
	m["replaynet.retransmits"] = w.retx / n
	m["replaynet.reconnects"] = w.reconn / n
	m["replaynet.duplicates"] = w.dups / n
	m["replaynet.srtt_ms"] = w.srttMs / n
	m["replaynet.final_cwnd"] = w.cwnd / n
	m["replaynet.ack_mean_ms"] = w.ackMean / n
	m["replaynet.ack_p50_ms"] = w.ackP50 / n
	m["replaynet.ack_p99_ms"] = w.ackP99 / n
	if w.applied > 0 {
		m["replaynet.server_rejected_share"] = w.rejected / w.applied
	}
}
