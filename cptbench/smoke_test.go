package main

import (
	"testing"
	"time"
)

// TestSmokeAllWorkloads runs every workload traced at a hundredth of its
// size: the untraced first round and the traced rounds, every correctness
// check, every end-to-end and per-layer reading and the span file all
// execute.
func TestSmokeAllWorkloads(t *testing.T) {
	probeFor = 10 * time.Millisecond
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			e := &env{seed: 7, scale: 0.01, seconds: 0.2, trace: true, setups: 1, tmp: t.TempDir()}
			res, err := run(def.name, def.new(), e)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("check %s failed: %s", c.Name, c.Detail)
				}
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("reported %d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("metric %s missing or in %q, want %q", d.Name, v.Unit, d.Unit)
				}
			}
			for _, d := range endToEnd {
				if v := res.endToEnd[d.Name]; v <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, v)
				}
			}
			if err := writeTrace(t.TempDir(), def.name, e); err != nil {
				t.Error(err)
			}
		})
	}
}
