// Command cptexperiments regenerates the paper's tables and figures
// end-to-end: it builds ground-truth traces, trains all four generators,
// synthesizes evaluation datasets and prints every table of the
// per-experiment index, experiments.All.
//
// Usage:
//
//	cptexperiments                  # all experiments, short scale
//	cptexperiments -scale full      # paper-shaped sizes
//	cptexperiments -only table5,table6
//	cptexperiments -skip-slow       # skip timing/ablation experiments
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	cptgen "cptgpt"
	"cptgpt/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cptexperiments: ")

	var (
		scaleFlag = flag.String("scale", "short", "experiment scale: unit, short or full")
		only      = flag.String("only", "", "comma-separated experiment ids (empty = all)")
		skipSlow  = flag.Bool("skip-slow", false, "skip experiments that train extra models")
		seed      = flag.Uint64("seed", 1, "lab seed")
		quiet     = flag.Bool("q", false, "suppress progress logging")
		par       = flag.Int("parallelism", 0, "worker count for training and generation (0 = all cores); results are identical at any value")
	)
	flag.Parse()
	if *par > 0 {
		cptgen.SetParallelism(*par)
	}

	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	lab := experiments.NewLab(scale, *seed)
	if !*quiet {
		lab.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[%s] "+format+"\n", append([]any{time.Now().Format("15:04:05")}, args...)...)
		}
	}

	start := time.Now()
	var reports []*experiments.Report
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			e, err := experiments.Lookup(strings.TrimSpace(id))
			if err != nil {
				log.Fatal(err)
			}
			r, err := e.Run(lab)
			if err != nil {
				log.Fatalf("%s: %v", e.ID, err)
			}
			reports = append(reports, r)
		}
	} else {
		if reports, err = experiments.RunAll(lab, *skipSlow); err != nil {
			log.Fatal(err)
		}
	}

	for _, r := range reports {
		fmt.Println(r)
	}
	fmt.Printf("completed %d experiments at scale %s in %s\n",
		len(reports), scale, time.Since(start).Round(time.Second))
}
