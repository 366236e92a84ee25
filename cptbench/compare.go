package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// trajectory is a committed set of runs: the numbers a later change is
// measured against, with what they were measured on.
type trajectory struct {
	Label   string   `json:"label"`
	NProc   int      `json:"nproc"`
	Go      string   `json:"go"`
	CPU     string   `json:"cpu"`
	Seed    uint64   `json:"seed"`
	Scale   float64  `json:"scale"`
	Seconds float64  `json:"seconds"`
	Runs    []result `json:"runs"`
}

func (t trajectory) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readTrajectory(path string) (trajectory, error) {
	var t trajectory
	b, err := os.ReadFile(path)
	if err != nil {
		return t, err
	}
	if err := json.Unmarshal(b, &t); err != nil {
		return t, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}

// values collects one metric's values over a trajectory's runs of one
// workload (untraced runs for end-to-end metrics, traced for per-layer).
func (t trajectory) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range t.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadBenchSpec finds BENCHMARK.json in the working directory or above it.
func loadBenchSpec() (benchSpec, error) {
	var spec benchSpec
	dir, err := os.Getwd()
	if err != nil {
		return spec, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			return spec, json.Unmarshal(b, &spec)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return spec, fmt.Errorf("BENCHMARK.json not found in the working directory or above it")
		}
		dir = parent
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the benchmark's acceptance rule is written in. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the inter-quartile distance as a share of the median, the
// run-to-run noise a bound must clear. It is 0 for fewer than two values:
// unknown, not small.
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// worseBy is how much worse new is than old, as a share of old, in the
// metric's own direction; negative means better.
func worseBy(better string, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	if better == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

// gated reports whether BENCHMARK.json lists the workload: rows of one it
// does not list are printed, but decide nothing.
func (b benchSpec) gated(workload string) bool {
	for _, w := range b.Workloads {
		if w.Name == workload {
			return true
		}
	}
	return false
}

// verdict applies one metric's bound to two sets of runs. A row is
// unresolved, not unchanged, when either side's own spread exceeds the
// bound.
func verdict(m metricSpec, old, new []float64) string {
	switch w := worseBy(m.Better, median(old), median(new)); {
	case max(spread(old), spread(new)) > m.Bound:
		return "unresolved"
	case w > m.Bound:
		return "REGRESSION"
	case w < -m.Bound:
		return "improved"
	}
	return "ok"
}

// compareFiles prints one row per end-to-end metric × workload and reports
// whether no row regressed.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	spec, err := loadBenchSpec()
	if err != nil {
		return false, err
	}
	old, err := readTrajectory(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readTrajectory(newPath)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-20s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", old.Label, cur.Label, "worse", "bound", "verdict")
	for _, wl := range workloads {
		note := ""
		if !spec.gated(wl.name) {
			note = " (not gated)"
		}
		for _, m := range spec.EndToEnd {
			a, b := old.values(wl.name, m.Name), cur.values(wl.name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(w, "%-20s %-18s %14s %14s %8s %5.0f%%  missing%s\n", wl.name, m.Name, "-", "-", "-", 100*m.Bound, note)
				ok = ok && note != ""
				continue
			}
			v := verdict(m, a, b)
			ok = ok && (v != "REGRESSION" || note != "")
			fmt.Fprintf(w, "%-20s %-18s %14.6g %14.6g %+7.1f%% %5.0f%%  %s%s\n", wl.name, m.Name,
				median(a), median(b), 100*worseBy(m.Better, median(a), median(b)), 100*m.Bound, v, note)
		}
	}
	return ok, nil
}

// aaReport is the A/A check on runs of one binary: per metric × workload
// the median, quartiles and spread, the bound that spread calls for
// (max(bound, 2 × spread); past 25% a metric cannot be an end-to-end
// metric), and whether the two halves of the runs, taken alternately so
// drift hits both, agree within the bound.
func aaReport(w io.Writer, spec benchSpec, t trajectory) bool {
	ok := true
	fmt.Fprintf(w, "\n%-20s %-18s %12s %12s %12s %7s %6s %9s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound", "calibrate", "halves")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			xs := t.values(wl.name, m.Name)
			if len(xs) < 4 {
				continue
			}
			var a, b []float64
			for i, x := range xs {
				if i%2 == 0 {
					a = append(a, x)
				} else {
					b = append(b, x)
				}
			}
			q1, q3 := quartiles(xs)
			sp := spread(xs)
			cal := fmt.Sprintf("%.0f%%", 100*max(m.Bound, 2*sp))
			if 2*sp > 0.25 {
				cal = "demote"
			}
			halves := "agree"
			if d := worseBy(m.Better, median(a), median(b)); d > m.Bound || d < -m.Bound {
				halves = "DISAGREE"
				ok = ok && !spec.gated(wl.name)
			}
			if !spec.gated(wl.name) {
				halves += " (not gated)"
			}
			fmt.Fprintf(w, "%-20s %-18s %12.6g %12.6g %12.6g %6.1f%% %5.0f%% %9s  %s\n", wl.name, m.Name, median(xs), q1, q3, 100*sp, 100*m.Bound, cal, halves)
		}
	}
	return ok
}
