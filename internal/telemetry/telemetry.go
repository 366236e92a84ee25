// Package telemetry is the live-observability substrate of the generation
// daemon: a small metrics registry whose hot-path instruments (Counter,
// Gauge) are single atomic words, so the scenario pipeline, the CPT-GPT
// decoder and the MCN simulator can publish progress from their inner loops
// without taking a lock, and an HTTP handler can render every live run as a
// Prometheus-style text page while those loops keep running.
//
// Concurrency contract: Counter.Add/Inc, Gauge.Set and Histogram.Observe
// are lock-free (atomic adds / stores) and safe from any number of
// goroutines; reads (Load, Snapshot, WritePrometheus) are atomic per
// instrument and never block writers. Registration
// (Counter/Gauge/Histogram/CounterFunc/GaugeFunc) and Drop take the
// registry mutex and belong on setup/teardown paths, not hot paths;
// registering the same (name, labels) twice returns the same instrument.
// Func-backed series are read at render time, so their callbacks must
// themselves be safe for concurrent use (read atomics).
//
// Determinism contract: WritePrometheus renders metrics sorted by name and
// then by label signature, so two snapshots of the same state are
// byte-identical — which keeps the daemon's /metrics endpoint diffable and
// the tests exact.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric: one atomic int64.
// The zero value is ready to use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a point-in-time metric: one atomic float64 (stored as bits).
// The zero value is ready to use and reads 0.
type Gauge struct{ bits atomic.Uint64 }

// Set stores the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the gauge's current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Label is one name=value pair attached to a metric series.
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// kind discriminates counter, gauge and histogram metrics.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// series is one labeled instance of a metric: either an owned instrument
// (counter/gauge/histogram) or a func-backed read-through.
type series struct {
	labelSig string // rendered {k="v",...} signature, "" when unlabeled
	counter  *Counter
	gauge    *Gauge
	hist     *Histogram
	fn       func() float64
}

// value reads the series' current value.
func (s *series) value() float64 {
	switch {
	case s.counter != nil:
		return float64(s.counter.Load())
	case s.gauge != nil:
		return s.gauge.Load()
	default:
		return s.fn()
	}
}

// metric is a named family of series sharing help text and a kind.
type metric struct {
	name   string
	help   string
	kind   kind
	series map[string]*series // by label signature
}

// Registry holds named metrics and renders them as Prometheus text.
// NewRegistry returns an empty one; methods are safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*metric
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

var (
	nameRe  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// labelSig renders labels as a canonical {k="v",...} signature (sorted by
// key, values escaped), so the same label set always maps to one series.
func labelSig(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the Prometheus text-format label escapes.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// register returns (creating if needed) the series for (name, labels),
// panicking on malformed names or a kind clash — both programmer errors.
// The caller holds r.mu and gives a new series its value source before
// releasing it, so no render sees a series without one.
func (r *Registry) register(name, help string, k kind, labels []Label) *series {
	if !nameRe.MatchString(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelRe.MatchString(l.Key) {
			panic(fmt.Sprintf("telemetry: metric %s: invalid label name %q", name, l.Key))
		}
	}
	sig := labelSig(labels)
	m := r.metrics[name]
	if m == nil {
		m = &metric{name: name, help: help, kind: k, series: make(map[string]*series)}
		r.metrics[name] = m
	} else if m.kind != k {
		panic(fmt.Sprintf("telemetry: metric %s registered as %s and %s", name, m.kind, k))
	}
	s := m.series[sig]
	if s == nil {
		s = &series{labelSig: sig}
		m.series[sig] = s
	}
	return s
}

// Counter returns the counter for (name, labels), creating it on first use.
// Re-registering the same series returns the same *Counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, kindCounter, labels)
	if s.counter == nil {
		s.counter = &Counter{}
		s.fn = nil
	}
	return s.counter
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, kindGauge, labels)
	if s.gauge == nil {
		s.gauge = &Gauge{}
		s.fn = nil
	}
	return s.gauge
}

// CounterFunc registers a counter series whose value is read from fn at
// render time — the bridge for subsystems that already keep their own
// atomic counters (DecodeStats, mcn.LiveStats). fn must be concurrency-safe.
func (r *Registry) CounterFunc(name, help string, fn func() int64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, kindCounter, labels)
	s.counter, s.gauge = nil, nil
	s.fn = func() float64 { return float64(fn()) }
}

// GaugeFunc registers a gauge series whose value is read from fn at render
// time. fn must be concurrency-safe.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, kindGauge, labels)
	s.counter, s.gauge = nil, nil
	s.fn = fn
}

// Drop removes every series carrying label key=value (and any metric left
// empty) — how a daemon retires a finished run's series when the run record
// is evicted.
func (r *Registry) Drop(key, value string) {
	needle := key + `="` + escapeLabel(value) + `"`
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, m := range r.metrics {
		for sig := range m.series {
			if strings.Contains(sig, "{"+needle) || strings.Contains(sig, ","+needle) {
				delete(m.series, sig)
			}
		}
		if len(m.series) == 0 {
			delete(r.metrics, name)
		}
	}
}

// SampleValue is one rendered series: a metric name, its label signature
// and the value at snapshot time.
type SampleValue struct {
	Name   string
	Labels string // canonical {k="v",...} signature, "" when unlabeled
	Value  float64
}

// Snapshot returns every series' current value, sorted by (name, labels) —
// the JSON-friendly counterpart of WritePrometheus. Histogram series
// contribute their `_count` and `_sum` aggregates (the full bucket vector
// only renders on the Prometheus page).
func (r *Registry) Snapshot() []SampleValue {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []SampleValue
	for _, m := range r.metrics {
		for _, s := range m.series {
			if s.hist != nil {
				out = append(out,
					SampleValue{Name: m.name + "_count", Labels: s.labelSig, Value: float64(s.hist.Count())},
					SampleValue{Name: m.name + "_sum", Labels: s.labelSig, Value: s.hist.Sum()})
				continue
			}
			out = append(out, SampleValue{Name: m.name, Labels: s.labelSig, Value: s.value()})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Labels < out[j].Labels
	})
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (# HELP / # TYPE headers, one "name{labels} value" line per
// series), deterministically ordered.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind); err != nil {
			r.mu.RUnlock()
			return err
		}
		sigs := make([]string, 0, len(m.series))
		for sig := range m.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := m.series[sig]
			var err error
			if s.hist != nil {
				if err = s.hist.writePrometheus(w, m.name, sig); err != nil {
					r.mu.RUnlock()
					return err
				}
				continue
			}
			if v := s.value(); m.kind == kindCounter && v == math.Trunc(v) {
				_, err = fmt.Fprintf(w, "%s%s %d\n", m.name, sig, int64(v))
			} else {
				_, err = fmt.Fprintf(w, "%s%s %g\n", m.name, sig, v)
			}
			if err != nil {
				r.mu.RUnlock()
				return err
			}
		}
	}
	r.mu.RUnlock()
	return nil
}
