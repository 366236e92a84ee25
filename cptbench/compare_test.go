package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(xs, n=4) → [q1, median, q3]
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdictAppliesBoundInTheMetricsDirection(t *testing.T) {
	rate := metricSpec{Name: "events_per_s", Better: "higher", Bound: 0.10}
	rss := metricSpec{Name: "peak_rss_mb", Better: "lower", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v, v, v * 1.01} }
	for _, c := range []struct {
		name     string
		m        metricSpec
		old, new []float64
		want     string
	}{
		{"slower by 20%", rate, steady(100), steady(80), "REGRESSION"},
		{"slower by 5%", rate, steady(100), steady(95), "ok"},
		{"faster by 20%", rate, steady(100), steady(120), "improved"},
		{"more memory", rss, steady(100), steady(120), "REGRESSION"},
		{"less memory", rss, steady(100), steady(80), "improved"},
		{"noisy parent", rate, []float64{70, 85, 100, 115, 130}, steady(80), "unresolved"},
		{"single runs", rate, []float64{100}, []float64{80}, "REGRESSION"},
	} {
		if got := verdict(c.m, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	iv := [][2]int64{{5, 15}, {0, 10}, {20, 30}, {25, 50}}
	if got := covered(iv, 0, 40); got != 35 {
		t.Errorf("covered = %d, want 35", got)
	}
}

// TestCompareGatesOnlyListedWorkloads writes two trajectories in which
// train-epoch, which BENCHMARK.json does not list, and gpt-plain, which it
// does, both lose 40 %: the first is reported, the second fails the run.
func TestCompareGatesOnlyListedWorkloads(t *testing.T) {
	traj := func(label string, rates map[string]float64) string {
		tr := trajectory{Label: label}
		for _, w := range workloads {
			rate, ok := rates[w.name]
			if !ok {
				rate = 100
			}
			tr.Runs = append(tr.Runs, result{Workload: w.name, Correct: true, Metrics: map[string]metricValue{
				"setup_s": {1, "s"}, "events_per_s": {rate, "1/s"},
			}})
		}
		path := filepath.Join(t.TempDir(), label+".json")
		if err := tr.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := traj("base", nil)
	for _, c := range []struct {
		slow string
		ok   bool
	}{{"train-epoch", true}, {"gpt-plain", false}} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, base, traj("change", map[string]float64{c.slow: 60}))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), "REGRESSION") {
			t.Errorf("%s 40%% slower: ok=%v, want %v\n%s", c.slow, ok, c.ok, out.String())
		}
	}
}
