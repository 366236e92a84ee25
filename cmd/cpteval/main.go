// Command cpteval computes the paper's fidelity metrics between a real and
// a synthesized control-plane trace.
//
// Usage:
//
//	cpteval -real trace.jsonl -synth synth.jsonl
package main

import (
	"flag"
	"fmt"
	"log"

	cptgen "cptgpt"
	"cptgpt/internal/events"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpteval: ")

	var (
		realPath  = flag.String("real", "trace.jsonl", "reference trace path")
		synthPath = flag.String("synth", "synth.jsonl", "synthesized trace path")
		gen       = flag.String("gen", "4G", "generation of the trace files read")
		memN      = flag.Int("mem-n", 0, "also run the n-gram memorization audit with this n (0 = skip)")
		memEps    = flag.Float64("mem-eps", 0.1, "memorization interarrival tolerance")
	)
	flag.Parse()

	g, err := events.ParseGeneration(*gen)
	if err != nil {
		log.Fatal(err)
	}
	real, err := cptgen.LoadTrace(*realPath, g)
	if err != nil {
		log.Fatal(err)
	}
	synth, err := cptgen.LoadTrace(*synthPath, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("real:  %s\n", real.Summarize())
	fmt.Printf("synth: %s\n", synth.Summarize())

	f := cptgen.Evaluate(real, synth)
	fmt.Printf("\nsemantic violations: events %.3f%%  streams %.2f%%\n",
		100*f.EventViolation, 100*f.StreamViolation)
	for _, v := range f.TopViolations {
		fmt.Printf("  top violation: state %s + event %s (%.3f%% of events)\n", v.State, v.Event, 100*v.Share)
	}
	fmt.Printf("max CDF y-distance:\n")
	fmt.Printf("  sojourn CONNECTED     %.1f%%\n", 100*f.SojournConnMaxY)
	fmt.Printf("  sojourn IDLE          %.1f%%\n", 100*f.SojournIdleMaxY)
	fmt.Printf("  flow length (all)     %.1f%%\n", 100*f.FlowLenMaxY)
	fmt.Printf("  flow length (SRV_REQ) %.1f%%\n", 100*f.FlowLenSrvReqMaxY)
	fmt.Printf("  flow length (REL)     %.1f%%\n", 100*f.FlowLenRelMaxY)
	fmt.Printf("event breakdown (synth - real):\n")
	for i, ev := range f.Vocab {
		fmt.Printf("  %-12s real %6.2f%%  diff %+6.2f%%\n", ev, 100*f.BreakdownReal[i], 100*f.BreakdownDiff[i])
	}

	if *memN > 0 {
		r, err := cptgen.Memorization(synth, real, *memN, *memEps)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("memorization: %.3f%% of %d-grams repeat (eps %.0f%%)\n",
			100*r.Rate(), *memN, 100**memEps)
	}
}
