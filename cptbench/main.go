// Command cptbench is the repo's benchmark: six named workloads, the
// end-to-end metrics a user of the system feels, and a traced run that
// decomposes the same wall clock layer by layer. See README.md beside it.
//
//	cptbench -workload all -seed 1            every workload, untraced
//	cptbench -workload all -seed 1 -trace 1   plus the traced pass
//	cptbench -workload gpt-spec -seconds 10   one workload, in this process
//	cptbench -repeat 10                       A/A: same code, ten runs each
//	cptbench -compare old.json new.json       row-by-row verdicts
//
// A single-workload run prints every metric by name and unit, then one JSON
// object as the last line of standard output, and exits non-zero if any
// correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

type workloadDef struct {
	name string
	why  string
	new  func() workload
}

// workloads are the benchmark's inputs. Names are stable: issues refer to
// them. All but train-epoch are listed in BENCHMARK.json, where a later
// change is held to a bound on each; train-epoch's run-to-run spread on the
// reference sandbox is at that bound's ceiling (see README.md), so it runs
// with -workload all and is compared in pairs, not gated.
var workloads = []workloadDef{
	{"train-epoch", "training from scratch at the paper's model size: tensor autograd, nn and the packed trainer do all the work, decode and scenario none",
		func() workload { return &trainEpoch{} }},
	{"gpt-plain", "decode-bound: a trained model as a scenario's only source under the plain continuous scheduler (Step, MatVecGroupF32)",
		func() workload { return &gptDecode{} }},
	{"gpt-spec", "the same decode layer used differently: speculative k=4 (StepK verify chains, GemmF32, draft accept/reject)",
		func() workload { return &gptDecode{speculative: true} }},
	{"synth-count", "pipeline-bound: synthetic flash-crowd, operators, sort/spill and a merge past the fan-in bound into the count sink; no decode",
		func() workload { return &synthCount{} }},
	{"served-jsonl", "sink-bound through the daemon: unpaced JSONL file run with journal checkpoints (flush+fsync per 4096 events) under API probes",
		func() workload { return &servedJSONL{} }},
	{"served-paced-replay", "fixed offered rate through the daemon into closed-loop replay: wall is set by the pacer, so cost shows as CPU and lag",
		func() workload { return &servedPacedReplay{} }},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "drives ground-truth synthesis and every spec seed")
		seconds = flag.Float64("seconds", 10, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 = traced run, reports the per-layer metrics")
		scale   = flag.Float64("scale", 1, "multiplies every population (smoke tests)")
		repeat  = flag.Int("repeat", 0, "A/A mode: run the untraced pass this many times per workload")
		compare = flag.Bool("compare", false, "compare two trajectory files: -compare old.json new.json")
		out     = flag.String("out", filepath.Join(".bench_build", "results"), "directory for trajectory and span files")
		label   = flag.String("label", "local", "trajectory file name (without .json)")
		verbose = flag.Bool("v", false, "print one line per round to standard error")
	)
	flag.Parse()
	if *seconds <= 0 || *scale <= 0 || *trace < 0 || *trace > 1 {
		fatal(fmt.Errorf("need -seconds > 0, -scale > 0 and -trace 0 or 1"))
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: cptbench -compare old.json new.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *name != "all" && *repeat == 0:
		def, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		os.Exit(single(def, *seed, *seconds, *scale, *trace == 1, *verbose, *out))
	default:
		names := []string{*name}
		if *name == "all" {
			names = names[:0]
			for _, w := range workloads {
				names = append(names, w.name)
			}
		} else if _, ok := findWorkload(*name); !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		traj := trajectory{
			Label: *label, NProc: runtime.NumCPU(), Go: runtime.Version(), CPU: cpuModel(),
			Seed: *seed, Scale: *scale, Seconds: *seconds,
		}
		// A/A runs compare end-to-end metrics, so they are untraced.
		traces := []int{0}
		if *trace == 1 && *repeat == 0 {
			traces = []int{0, 1}
		}
		ok := true
		for i := 0; i < max(*repeat, 1); i++ {
			for _, n := range names {
				for _, tr := range traces {
					res, err := child(n, *seed+uint64(i), *seconds, *scale, tr, *out)
					if err != nil {
						fatal(err)
					}
					ok = ok && res.Correct
					traj.Runs = append(traj.Runs, res)
				}
			}
		}
		path := filepath.Join(*out, *label+".json")
		if err := traj.write(path); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", path)
		if *repeat > 0 {
			spec, err := loadBenchSpec()
			if err != nil {
				fatal(err)
			}
			ok = aaReport(os.Stdout, spec, traj) && ok
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cptbench:", err)
	os.Exit(2)
}

// single runs one workload in this process and prints its result; the
// return value is the exit code.
func single(def workloadDef, seed uint64, seconds, scale float64, trace, verbose bool, out string) int {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(".bench_build", "tmp-")
	if err != nil {
		fatal(err)
	}
	if tmp, err = filepath.Abs(tmp); err != nil {
		fatal(err)
	}
	e := &env{seed: seed, scale: scale, seconds: seconds, trace: trace, verbose: verbose, tmp: tmp}
	res, err := run(def.name, def.new(), e)
	if trace && err == nil {
		err = writeTrace(out, def.name, e)
	}
	os.RemoveAll(tmp)
	if err != nil {
		fatal(err)
	}
	printResult(res)
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult prints every metric by name and unit and every check, then
// the contract's JSON object as the last line.
func printResult(res result) {
	fmt.Printf("== %s  seed %d  trace %d  digest %s\n", res.Workload, res.Seed, res.Trace, res.Digest)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, d := range endToEnd {
		if v, ok := res.endToEnd[d.Name]; ok {
			fmt.Printf("traced %-40s %14.6g %s\n", d.Name, v, d.Unit)
		}
	}
	for _, c := range res.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Printf("check  %s %-34s %s\n", status, c.Name, c.Detail)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// child re-executes this binary for one workload, so peak RSS, GC state and
// tracez state never leak from one workload into the next.
func child(name string, seed uint64, seconds, scale float64, trace int, out string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-scale", fmt.Sprint(scale), "-trace", fmt.Sprint(trace), "-out", out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	os.Stdout.Write(stdout)
	if _, exited := err.(*exec.ExitError); err != nil && !exited {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	res := result{Workload: name, Seed: seed, Trace: trace}
	if uerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); uerr != nil {
		return res, fmt.Errorf("%s: no result line (%v)", name, err)
	}
	return res, nil
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
