package telemetry

import (
	"io"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_events_total", "events", L("run", "r1"))
	c.Add(41)
	c.Inc()
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Re-registering the same (name, labels) returns the same instrument.
	if c2 := r.Counter("test_events_total", "events", L("run", "r1")); c2 != c {
		t.Fatal("re-registration returned a different counter")
	}
	// A different label value is a different series.
	if c3 := r.Counter("test_events_total", "events", L("run", "r2")); c3 == c {
		t.Fatal("different labels returned the same counter")
	}
	g := r.Gauge("test_lag_seconds", "lag")
	g.Set(1.5)
	if got := g.Load(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
}

func TestFuncSeries(t *testing.T) {
	r := NewRegistry()
	n := int64(7)
	r.CounterFunc("test_fn_total", "fn", func() int64 { return n })
	r.GaugeFunc("test_fn_gauge", "fn", func() float64 { return 2.25 })
	snap := r.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d series, want 2", len(snap))
	}
	if snap[0].Name != "test_fn_gauge" || snap[0].Value != 2.25 {
		t.Fatalf("snapshot[0] = %+v", snap[0])
	}
	if snap[1].Name != "test_fn_total" || snap[1].Value != 7 {
		t.Fatalf("snapshot[1] = %+v", snap[1])
	}
}

func TestConcurrentAdds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "t")
	g := r.Gauge("test_gauge", "t")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Set(float64(i))
				_ = r.Snapshot()[0].Value // readers never block writers
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

// promLine matches one sample line of the Prometheus text format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [0-9eE.+-]+$`)

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "second metric", L("run", "r1"), L("scenario", "flash-crowd")).Add(3)
	r.Counter("b_total", "second metric", L("run", "r2"), L("scenario", "iot-burst")).Add(5)
	r.Gauge("a_gauge", "first metric").Set(0.5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Deterministic order: a_gauge first, then b_total's two series sorted.
	want := []string{
		"# HELP a_gauge first metric",
		"# TYPE a_gauge gauge",
		"a_gauge 0.5",
		"# HELP b_total second metric",
		"# TYPE b_total counter",
		`b_total{run="r1",scenario="flash-crowd"} 3`,
		`b_total{run="r2",scenario="iot-burst"} 5`,
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d lines, want %d:\n%s", len(lines), len(want), out)
	}
	for i, l := range lines {
		if l != want[i] {
			t.Fatalf("line %d = %q, want %q", i, l, want[i])
		}
		if !strings.HasPrefix(l, "#") && !promLine.MatchString(l) {
			t.Fatalf("line %d %q does not match the exposition format", i, l)
		}
	}
	// Two renders of the same state are byte-identical.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Fatal("repeated renders differ")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "esc", L("path", `a"b\c`+"\n")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `esc_total{path="a\"b\\c\n"} 1`; !strings.Contains(sb.String(), want) {
		t.Fatalf("escaped line missing; got %q", sb.String())
	}
}

func TestDrop(t *testing.T) {
	r := NewRegistry()
	r.Counter("d_total", "d", L("run", "r1")).Inc()
	r.Counter("d_total", "d", L("run", "r2")).Inc()
	r.GaugeFunc("d_gauge", "d", func() float64 { return 1 }, L("run", "r1"), L("x", "y"))
	r.Drop("run", "r1")
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Labels != `{run="r2"}` {
		t.Fatalf("after Drop, snapshot = %+v", snap)
	}
	// Dropping the last series removes the metric family entirely.
	r.Drop("run", "r2")
	if snap := r.Snapshot(); len(snap) != 0 {
		t.Fatalf("after dropping all, snapshot = %+v", snap)
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad metric name", func() { r.Counter("bad name", "h") })
	mustPanic("bad label name", func() { r.Counter("ok_total", "h", L("bad key", "v")) })
	r.Counter("kind_clash", "h")
	mustPanic("kind clash", func() { r.Gauge("kind_clash", "h") })
}

// A render racing registrations sees each new series either not yet or
// with its value source set, never in between.
func TestRenderDuringRegistration(t *testing.T) {
	r := NewRegistry()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3000; i++ {
			lbl := L("run", strconv.Itoa(i))
			r.CounterFunc("race_events_total", "h", func() int64 { return 1 }, lbl)
			r.GaugeFunc("race_lag_seconds", "h", func() float64 { return 1 }, lbl)
			r.Counter("race_plain_total", "h", lbl)
			r.Drop("run", strconv.Itoa(i-8))
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		r.Snapshot()
	}
}
