package telemetry

import (
	"io"
	"math"
	"strconv"
	"sync/atomic"
)

// Buckets describes a log-spaced histogram bucket scheme: bucket 0 holds
// values below Min, then PerDecade buckets per decade up to Max, then one
// overflow bucket. It gives O(1)-memory distributions; it lives here so
// mcn, replaynet and the telemetry registry agree on one bucketing (and one
// set of Prometheus `le` edges).
type Buckets struct {
	Min       float64 // lower edge of the first log bucket
	Max       float64 // values >= Max land in the overflow bucket
	PerDecade int     // buckets per factor-of-10
}

// LatencyBuckets spans 10µs..10ks at 16 buckets/decade, used for every
// duration-valued histogram in the repo.
var LatencyBuckets = Buckets{Min: 1e-5, Max: 1e4, PerDecade: 16}

// RateBuckets spans 0.01..10M events/s at 16 buckets/decade, for
// achieved-rate distributions (unpaced runs can emit millions of events/s).
var RateBuckets = Buckets{Min: 1e-2, Max: 1e7, PerDecade: 16}

// NumBuckets returns the total bucket count: underflow + PerDecade per
// decade in [Min, Max) + overflow.
func (b Buckets) NumBuckets() int {
	decades := int(math.Round(math.Log10(b.Max / b.Min)))
	return 2 + b.PerDecade*decades
}

// Index returns the bucket index for value v.
func (b Buckets) Index(v float64) int {
	n := b.NumBuckets()
	switch {
	case v < b.Min:
		return 0
	case v >= b.Max:
		return n - 1
	default:
		idx := 1 + int(math.Floor(math.Log10(v/b.Min)*float64(b.PerDecade)))
		if idx > n-2 {
			idx = n - 2
		}
		return idx
	}
}

// UpperEdge returns the inclusive upper bound of bucket i: Min for the
// underflow bucket, +Inf for the overflow bucket, Min·10^(i/PerDecade)
// otherwise.
func (b Buckets) UpperEdge(i int) float64 {
	switch {
	case i <= 0:
		return b.Min
	case i >= b.NumBuckets()-1:
		return math.Inf(1)
	default:
		return b.Min * math.Pow(10, float64(i)/float64(b.PerDecade))
	}
}

// Histogram is a lock-free log-bucketed distribution: one atomic counter
// per bucket plus an exact atomic sum, so hot loops (pacer releases, decode
// steps, replay ACK folds) can Observe from any goroutine without locks.
// It renders as a native Prometheus histogram (cumulative `_bucket{le=...}`
// series, `_sum`, `_count`). A quantile is the upper edge of the bucket
// holding the requested rank (≤ 16%/decade apart on LatencyBuckets), clamped
// to [Min, Max]; the mean is exact. It is also the histogram the MCN
// simulator's report and the closed-loop replay driver's per-transaction
// accounting read from.
type Histogram struct {
	b       Buckets
	counts  []atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the exact sample sum
	les     []string      // pre-rendered `le` label values, one per bucket
}

// NewHistogram returns an empty histogram over scheme b. Use this for
// standalone instruments (e.g. tracez stage aggregates); use
// Registry.Histogram for series that should render on /metrics.
func NewHistogram(b Buckets) *Histogram {
	n := b.NumBuckets()
	h := &Histogram{b: b, counts: make([]atomic.Int64, n), les: make([]string, n)}
	for i := 0; i < n-1; i++ {
		h.les[i] = strconv.FormatFloat(b.UpperEdge(i), 'g', -1, 64)
	}
	h.les[n-1] = "+Inf"
	return h
}

// Observe records one sample. Lock-free: two atomic adds plus a CAS loop
// for the exact sum. NaN samples are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	var idx int
	switch {
	case v < h.b.Min:
		idx = 0
	case v >= h.b.Max:
		idx = len(h.counts) - 1
	default:
		idx = 1 + int(math.Floor(math.Log10(v/h.b.Min)*float64(h.b.PerDecade)))
		if idx > len(h.counts)-2 {
			idx = len(h.counts) - 2
		}
	}
	h.counts[idx].Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Reset clears the histogram for reuse (the SLO-search controller's
// per-probe-window measurements reuse one allocation). Single-writer: an
// Observe racing it may survive or be lost in part.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sumBits.Store(0)
}

// Sum returns the exact sum of recorded samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean returns the exact mean of recorded samples (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Quantile returns the upper edge of the bucket containing the q-quantile
// (rank ⌊q·(n−1)⌋; underflow reads Min, overflow reads Max, 0 when empty).
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n-1))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum > rank {
			if i == len(h.counts)-1 {
				return h.b.Max
			}
			return h.b.UpperEdge(i)
		}
	}
	return h.b.Max
}

// bucketSig splices an `le` label into a series' canonical label signature.
func bucketSig(sig, le string) string {
	if sig == "" {
		return `{le="` + le + `"}`
	}
	return sig[:len(sig)-1] + `,le="` + le + `"}`
}

// writePrometheus renders the histogram as cumulative `_bucket` lines plus
// `_sum` and `_count`. Only non-empty buckets would still render — every
// bucket line is emitted so the edge set is stable across scrapes, keeping
// the output byte-identical for identical state. The `+Inf` bucket and
// `_count` are computed from the same single pass over the bucket counters,
// so they are always equal even while writers are racing.
func (h *Histogram) writePrometheus(w io.Writer, name, sig string) error {
	var cum int64
	buf := make([]byte, 0, 64)
	for i := range h.counts {
		cum += h.counts[i].Load()
		buf = buf[:0]
		buf = append(buf, name...)
		buf = append(buf, "_bucket"...)
		buf = append(buf, bucketSig(sig, h.les[i])...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, cum, 10)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	buf = buf[:0]
	buf = append(buf, name...)
	buf = append(buf, "_sum"...)
	buf = append(buf, sig...)
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, h.Sum(), 'g', -1, 64)
	buf = append(buf, '\n')
	buf = append(buf, name...)
	buf = append(buf, "_count"...)
	buf = append(buf, sig...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, cum, 10)
	buf = append(buf, '\n')
	_, err := w.Write(buf)
	return err
}

// Histogram returns the histogram for (name, labels) over scheme b,
// creating it on first use. Re-registering the same series returns the same
// *Histogram (the scheme argument is ignored on the second call).
func (r *Registry) Histogram(name, help string, b Buckets, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.register(name, help, kindHistogram, labels)
	if s.hist == nil {
		s.hist = NewHistogram(b)
		s.fn = nil
	}
	return s.hist
}
