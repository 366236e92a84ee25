package telemetry

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestBucketsScheme(t *testing.T) {
	b := LatencyBuckets
	if got, want := b.NumBuckets(), 2+16*9; got != want {
		t.Fatalf("NumBuckets = %d, want %d", got, want)
	}
	// Underflow, overflow, and interior placement.
	if got := b.Index(1e-6); got != 0 {
		t.Fatalf("Index(1e-6) = %d, want 0", got)
	}
	if got := b.Index(1e5); got != b.NumBuckets()-1 {
		t.Fatalf("Index(1e5) = %d, want %d", got, b.NumBuckets()-1)
	}
	// Every interior sample lands in a bucket whose edges bracket it.
	for _, v := range []float64{1e-5, 2e-5, 1e-3, 0.4, 1, 37.5, 9999} {
		i := b.Index(v)
		if i <= 0 || i >= b.NumBuckets()-1 {
			t.Fatalf("Index(%v) = %d, want interior", v, i)
		}
		if hi := b.UpperEdge(i); v > hi*(1+1e-12) {
			t.Fatalf("Index(%v) = %d but upper edge %v < sample", v, i, hi)
		}
		if lo := b.UpperEdge(i - 1); i > 1 && v < lo*(1-1e-12) {
			t.Fatalf("Index(%v) = %d but lower edge %v > sample", v, i, lo)
		}
	}
	// Edges strictly increase (Prometheus requires sorted le values).
	for i := 1; i < b.NumBuckets()-1; i++ {
		if b.UpperEdge(i) <= b.UpperEdge(i-1) {
			t.Fatalf("edges not increasing at %d: %v <= %v", i, b.UpperEdge(i), b.UpperEdge(i-1))
		}
	}
	if !math.IsInf(b.UpperEdge(b.NumBuckets()-1), 1) {
		t.Fatal("last edge is not +Inf")
	}
}

func TestHistogramObserve(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram not zero-valued")
	}
	samples := []float64{0.001, 0.002, 0.010, 0.100, 1.5}
	var want float64
	for _, v := range samples {
		h.Observe(v)
		want += v
	}
	h.Observe(math.NaN()) // dropped
	if got := h.Count(); got != int64(len(samples)) {
		t.Fatalf("Count = %d, want %d", got, len(samples))
	}
	if got := h.Sum(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
	if got := h.Mean(); math.Abs(got-want/5) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", got, want/5)
	}
	// The median sample is 0.010; its bucket's upper edge must bracket it.
	if q := h.Quantile(0.5); q < 0.010 || q > 0.012 {
		t.Fatalf("Quantile(0.5) = %v, want ≈0.010 bucket edge", q)
	}
	// Out-of-range samples clamp to Min / Max.
	h2 := NewHistogram(LatencyBuckets)
	h2.Observe(1e-9)
	h2.Observe(1e9)
	if q := h2.Quantile(0); q != LatencyBuckets.Min {
		t.Fatalf("underflow quantile = %v, want %v", q, LatencyBuckets.Min)
	}
	if q := h2.Quantile(1); q != LatencyBuckets.Max {
		t.Fatalf("overflow quantile = %v, want %v", q, LatencyBuckets.Max)
	}
	// Reset leaves an empty histogram that fills as a new one does.
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 || h.Quantile(0.99) != 0 {
		t.Fatalf("after Reset: count %d sum %v", h.Count(), h.Sum())
	}
	h.Observe(0.25)
	fresh := NewHistogram(LatencyBuckets)
	fresh.Observe(0.25)
	if h.Count() != 1 || h.Sum() != 0.25 || h.Quantile(0.5) != fresh.Quantile(0.5) {
		t.Fatalf("reused after Reset: count %d sum %v p50 %v, want 1, 0.25, %v", h.Count(), h.Sum(), h.Quantile(0.5), fresh.Quantile(0.5))
	}
}

// parsePromHistogram pulls the rendered bucket counts, sum and count for one
// histogram series out of a full /metrics exposition.
func parsePromHistogram(t *testing.T, text, name string) (les []string, cum []int64, sum float64, count int64) {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, name+"_bucket{"):
			iLE := strings.Index(line, `le="`)
			rest := line[iLE+4:]
			iQ := strings.Index(rest, `"`)
			les = append(les, rest[:iQ])
			f := strings.Fields(line)
			v, err := strconv.ParseInt(f[len(f)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			cum = append(cum, v)
		case strings.HasPrefix(line, name+"_sum"):
			f := strings.Fields(line)
			sum, _ = strconv.ParseFloat(f[len(f)-1], 64)
		case strings.HasPrefix(line, name+"_count"):
			f := strings.Fields(line)
			count, _ = strconv.ParseInt(f[len(f)-1], 10, 64)
		}
	}
	return les, cum, sum, count
}

func TestHistogramPrometheusRender(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "latency", LatencyBuckets, L("run", "r1"))
	for _, v := range []float64{1e-6, 0.001, 0.001, 0.25, 1e6} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	les, cum, sum, count := parsePromHistogram(t, text, "test_latency_seconds")
	if len(les) != LatencyBuckets.NumBuckets() {
		t.Fatalf("rendered %d buckets, want %d", len(les), LatencyBuckets.NumBuckets())
	}
	// Cumulative counts must be monotone non-decreasing.
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("bucket counts not cumulative at %d: %d < %d", i, cum[i], cum[i-1])
		}
	}
	// The +Inf bucket equals _count — the histogram invariant scrapers check.
	if les[len(les)-1] != "+Inf" {
		t.Fatalf("last le = %q, want +Inf", les[len(les)-1])
	}
	if cum[len(cum)-1] != count {
		t.Fatalf("+Inf bucket %d != _count %d", cum[len(cum)-1], count)
	}
	if count != 5 {
		t.Fatalf("_count = %d, want 5", count)
	}
	if want := 1e-6 + 0.001 + 0.001 + 0.25 + 1e6; math.Abs(sum-want) > 1e-9 {
		t.Fatalf("_sum = %v, want %v", sum, want)
	}
	// Every le value (bar +Inf) must parse and strictly increase.
	var prev float64
	for i, le := range les[:len(les)-1] {
		v, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("unparseable le %q: %v", le, err)
		}
		if i > 0 && v <= prev {
			t.Fatalf("le values not increasing: %v after %v", v, prev)
		}
		prev = v
	}
	// The labels and le are rendered together, le last.
	if !strings.Contains(text, `test_latency_seconds_bucket{run="r1",le="+Inf"}`) {
		t.Fatalf("missing composed labels+le in:\n%s", text)
	}

	// Rendering is deterministic: a second pass over unchanged state is
	// byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != text {
		t.Fatal("two renders of identical state differ")
	}
}

func TestHistogramRegistry(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_h_seconds", "h", LatencyBuckets, L("run", "r1"))
	// Re-registering the same series returns the same histogram.
	if h2 := r.Histogram("test_h_seconds", "h", LatencyBuckets, L("run", "r1")); h2 != h {
		t.Fatal("re-registration returned a different histogram")
	}
	// A kind clash (histogram name reused as a counter) panics like any
	// other registry kind conflict.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("kind clash did not panic")
			}
		}()
		r.Counter("test_h_seconds", "h", L("run", "r1"))
	}()
	// Snapshot exposes _count and _sum sample values.
	h.Observe(0.5)
	found := 0
	for _, s := range r.Snapshot() {
		switch s.Name {
		case "test_h_seconds_count", "test_h_seconds_sum":
			found++
		}
	}
	if found != 2 {
		t.Fatalf("snapshot missing histogram samples (found %d of 2)", found)
	}
	// Drop removes the series from the exposition.
	r.Drop("run", "r1")
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "test_h_seconds") {
		t.Fatalf("dropped histogram still rendered:\n%s", b.String())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	const goroutines, per = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g*per+i) * 1e-6)
			}
		}(g)
	}
	// Concurrent render while writers race: the +Inf==_count invariant must
	// hold on any snapshot, not just the final one, because both come from
	// one pass over the bucket counters.
	var b strings.Builder
	_ = h.writePrometheus(&b, "test_conc", "")
	_, midCum, _, midCount := parsePromHistogram(t, b.String(), "test_conc")
	if midCum[len(midCum)-1] != midCount {
		t.Fatalf("mid-race +Inf %d != _count %d", midCum[len(midCum)-1], midCount)
	}
	wg.Wait()

	if got, want := h.Count(), int64(goroutines*per); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	var want float64
	for i := 0; i < goroutines*per; i++ {
		want += float64(i) * 1e-6
	}
	if math.Abs(h.Sum()-want) > 1e-6*want {
		t.Fatalf("Sum = %v, want ≈%v", h.Sum(), want)
	}
	les, cum, _, count := parsePromHistogram(t, func() string {
		var f strings.Builder
		_ = h.writePrometheus(&f, "test_conc", "")
		return f.String()
	}(), "test_conc")
	if cum[len(cum)-1] != count {
		t.Fatalf("+Inf %d != _count %d after concurrent writes", cum[len(cum)-1], count)
	}
	_ = les
}
