package main

import (
	"math"
	"testing"
)

const scrape = `# HELP cptserved_replay_rtt_seconds Distribution of RTTs.
# TYPE cptserved_replay_rtt_seconds histogram
cptserved_replay_rtt_seconds_bucket{run="run-1",scenario="flash-crowd",le="0.001"} 10
cptserved_replay_rtt_seconds_bucket{run="run-1",scenario="flash-crowd",le="0.002"} 30
cptserved_replay_rtt_seconds_bucket{run="run-1",scenario="flash-crowd",le="0.004"} 90
cptserved_replay_rtt_seconds_bucket{run="run-1",scenario="flash-crowd",le="+Inf"} 100
cptserved_replay_rtt_seconds_sum{run="run-1",scenario="flash-crowd"} 0.31
cptserved_replay_rtt_seconds_count{run="run-1",scenario="flash-crowd"} 100
cptserved_replay_rtt_seconds_bucket{run="run-2",scenario="a \"quoted\" \\ name",le="0.001"} 7
cptserved_replay_rtt_seconds_bucket{run="run-2",scenario="a \"quoted\" \\ name",le="+Inf"} 7
cptserved_journal_appends_total 323
not a sample line
`

func TestParsePromReadsLabelsAndValues(t *testing.T) {
	samples := parseProm(scrape)
	if got := promValue(samples, "cptserved_journal_appends_total", nil); got != 323 {
		t.Errorf("journal appends = %v, want 323", got)
	}
	if got := promValue(samples, "cptserved_replay_rtt_seconds_count", map[string]string{"run": "run-1"}); got != 100 {
		t.Errorf("run-1 count = %v, want 100", got)
	}
	b := promHistogram(samples, "cptserved_replay_rtt_seconds", map[string]string{"run": "run-2"})
	if len(b) != 2 || b[0].cum != 7 || !math.IsInf(b[1].le, 1) {
		t.Errorf("run-2 buckets = %+v", b)
	}
	var escaped string
	for _, s := range samples {
		if s.labels["run"] == "run-2" {
			escaped = s.labels["scenario"]
		}
	}
	if escaped != `a "quoted" \ name` {
		t.Errorf("escaped label = %q", escaped)
	}
}

func TestBucketQuantileInterpolates(t *testing.T) {
	b := promHistogram(parseProm(scrape), "cptserved_replay_rtt_seconds", map[string]string{"run": "run-1"})
	for _, c := range []struct{ q, want float64 }{
		{0.05, 0.0005},  // rank 5 of the 10 in [0, 1ms)
		{0.10, 0.001},   // exactly the first edge
		{0.50, 0.00267}, // rank 50: 20 of the 60 in [2ms, 4ms)
		{0.90, 0.004},   // last finite edge
		{0.99, 0.004},   // in +Inf: clamps to the highest finite edge
	} {
		if got := bucketQuantile(c.q, b); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("q%.2f = %v, want %v", c.q, got, c.want)
		}
	}
	if got := bucketQuantile(0.5, nil); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}
