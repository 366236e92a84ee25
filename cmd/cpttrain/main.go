// Command cpttrain fits a traffic generator on a trace and saves the model.
//
// Usage:
//
//	cpttrain -model cptgpt  -in trace.jsonl -out model.bin -epochs 20
//	cpttrain -model netshare -in trace.jsonl -out model.bin
//
// The SMM baseline has no training step and no model file: cptsynth fits it
// from the reference trace when it generates (cptsynth -model smm -fit
// trace.jsonl -k 16).
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
	log.SetPrefix("cpttrain: ")

	var (
		model  = flag.String("model", "cptgpt", "generator to train: cptgpt or netshare (the SMM baseline is fitted by cptsynth -model smm -fit)")
		in     = flag.String("in", "trace.jsonl", "training trace path")
		out    = flag.String("out", "model.bin", "output model path")
		gen    = flag.String("gen", "4G", "generation of the trace files read")
		epochs = flag.Int("epochs", 0, "override epoch count (0 = config default)")
		dmodel = flag.Int("dmodel", 32, "CPT-GPT attention width")
		seed   = flag.Uint64("seed", 7, "random seed")
		par    = flag.Int("parallelism", 0, "tensor-kernel worker count (0 = all cores); trained weights are identical at any value")
	)
	flag.Parse()
	if *par > 0 {
		cptgen.SetParallelism(*par)
	}

	g, err := events.ParseGeneration(*gen)
	if err != nil {
		log.Fatal(err)
	}
	d, err := cptgen.LoadTrace(*in, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %s: %s\n", *in, d.Summarize())

	switch *model {
	case "cptgpt":
		cfg := cptgen.DefaultCPTGPTConfig()
		cfg.Generation = d.Generation
		cfg.DModel = *dmodel
		cfg.MLPHidden = 2 * *dmodel
		cfg.HeadHidden = *dmodel
		cfg.Seed = *seed
		if *epochs > 0 {
			cfg.Epochs = *epochs
		}
		m, err := cptgen.TrainCPTGPT(d, cfg, cptgen.CPTGPTTrainOpts{
			OnEpoch: func(e int, loss float64) { fmt.Printf("epoch %d: loss %.4f\n", e+1, loss) },
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := m.SaveFile(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d parameters, %d bytes of weights)\n", *out, m.NumParams(), m.WeightBytes())
	case "netshare":
		cfg := cptgen.DefaultNetShareConfig()
		cfg.Generation = d.Generation
		cfg.Seed = *seed
		if *epochs > 0 {
			cfg.Epochs = *epochs
		}
		m, err := cptgen.TrainNetShare(d, cfg, cptgen.NetShareTrainOpts{
			OnEpoch: func(e int, dl, gl float64) { fmt.Printf("epoch %d: D %.4f G %.4f\n", e+1, dl, gl) },
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := m.SaveFile(*out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d parameters)\n", *out, m.NumParams())
	default:
		log.Fatalf("unknown -model %q (want cptgpt or netshare)", *model)
	}
}
