// Command cptsynth samples a synthetic control-plane trace from a trained
// model (CPT-GPT or NetShare) or from an SMM fit of a reference trace.
//
// Usage:
//
//	cptsynth -model cptgpt  -model-file model.bin -n 1000 -out synth.jsonl
//	cptsynth -model cptgpt  -model-file model.bin -n 1000000 -speculative -draft-k 4 -out synth.jsonl.gz
//	cptsynth -model netshare -model-file model.bin -n 1000 -out synth.jsonl
//	cptsynth -model smm -k 16 -fit trace.jsonl -n 1000 -out synth.jsonl
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	cptgen "cptgpt"
	"cptgpt/internal/events"
	"cptgpt/internal/netshare"
	"cptgpt/internal/tracez"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cptsynth: ")

	var (
		model     = flag.String("model", "cptgpt", "generator: cptgpt, netshare or smm")
		modelFile = flag.String("model-file", "model.bin", "trained model path (cptgpt/netshare)")
		fit       = flag.String("fit", "", "reference trace to fit (smm)")
		k         = flag.Int("k", 1, "SMM cluster count (1 = SMM-1)")
		n         = flag.Int("n", 1000, "number of UE streams to synthesize")
		device    = flag.String("device", "phone", "device label: phone, connected_car, tablet")
		gen       = flag.String("gen", "4G", "generation of the trace files read, and of netshare models")
		out       = flag.String("out", "synth.jsonl", "output trace path")
		seed      = flag.Uint64("seed", 3, "random seed")
		par       = flag.Int("parallelism", 0, "worker count for generation (0 = all cores); output is identical at any value")
		batch     = flag.Int("batch", 0, "CPT-GPT decode batch size: slots per continuously refilled decoder (0 = default)")
		spec      = flag.Bool("speculative", false, "CPT-GPT speculative decoding: a self-fitted draft proposes -draft-k tokens per UE, one multi-token pass verifies them; output distribution is exact, deterministic per -seed")
		draftK    = flag.Int("draft-k", 0, "speculative draft chain length (0 = default)")
		trace     = flag.Bool("trace", false, "record flight-recorder spans and dump the per-stage timing summary to stderr on exit")
	)
	flag.Parse()
	if *trace {
		tracez.Enable()
		// log.Fatal paths skip this: the summary is a success-path report.
		defer func() { fmt.Fprint(os.Stderr, tracez.Summary()) }()
	}
	if *par > 0 {
		cptgen.SetParallelism(*par)
	}
	dev, err := events.ParseDeviceType(*device)
	if err != nil {
		log.Fatal(err)
	}
	g, err := events.ParseGeneration(*gen)
	if err != nil {
		log.Fatal(err)
	}

	var d *cptgen.Dataset
	switch *model {
	case "cptgpt":
		m, err := cptgen.LoadCPTGPT(*modelFile)
		if err != nil {
			log.Fatal(err)
		}
		var st cptgen.CPTGPTDecodeStats
		opts := cptgen.CPTGPTGenOpts{
			NumStreams: *n, Device: dev, Seed: *seed,
			Parallelism: *par, BatchSize: *batch,
			Speculative: *spec, DraftTokens: *draftK, Stats: &st,
		}
		if d, err = m.Generate(opts); err != nil {
			log.Fatal(err)
		}
		if *spec && st.DraftProposed > 0 {
			fmt.Printf("speculative decode: %d/%d draft tokens accepted (%.1f%%)\n",
				st.DraftAccepted, st.DraftProposed, 100*float64(st.DraftAccepted)/float64(st.DraftProposed))
		}
	case "netshare":
		cfg := cptgen.DefaultNetShareConfig()
		cfg.Generation = g
		m, err := netshare.LoadFile(*modelFile, cfg)
		if err != nil {
			log.Fatal(err)
		}
		if d, err = m.Generate(cptgen.NetShareGenOpts{NumStreams: *n, Device: dev, Seed: *seed, Parallelism: *par}); err != nil {
			log.Fatal(err)
		}
	case "smm":
		if *fit == "" {
			log.Fatal("-fit is required for -model smm")
		}
		ref, err := cptgen.LoadTrace(*fit, g)
		if err != nil {
			log.Fatal(err)
		}
		cfg := cptgen.DefaultSMMConfig()
		cfg.K = *k
		cfg.Seed = *seed
		m, err := cptgen.FitSMM(ref, cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("fitted SMM: %d clusters, %d sojourn CDFs\n", m.K(), m.NumCDFs())
		if d, err = m.Generate(cptgen.SMMGenOpts{NumStreams: *n, Device: dev, Seed: *seed, Parallelism: *par}); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -model %q", *model)
	}

	if err := cptgen.SaveTrace(*out, d); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %s\n", *out, d.Summarize())
}
