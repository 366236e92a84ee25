// Command cptgen generates a ground-truth control-plane workload (the
// stand-in for a carrier trace) and writes it to disk.
//
// Usage:
//
//	cptgen -out trace.jsonl -phones 500 -cars 300 -tablets 250 -hours 2
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
	log.SetPrefix("cptgen: ")

	var (
		out       = flag.String("out", "trace.jsonl", "output path: event lines, csv under .csv and jsonl otherwise (.gz compresses)")
		gen       = flag.String("gen", "4G", "cellular generation: 4G or 5G")
		phones    = flag.Int("phones", 500, "number of phone UEs")
		cars      = flag.Int("cars", 300, "number of connected-car UEs")
		tablets   = flag.Int("tablets", 250, "number of tablet UEs")
		hours     = flag.Int("hours", 1, "trace horizon in hours")
		startHour = flag.Int("start-hour", 10, "hour-of-day at t=0 (diurnal phase)")
		seed      = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	g, err := events.ParseGeneration(*gen)
	if err != nil {
		log.Fatal(err)
	}
	cfg := cptgen.GroundTruthConfig{
		Generation: g,
		Seed:       *seed,
		UEs: map[events.DeviceType]int{
			events.Phone:        *phones,
			events.ConnectedCar: *cars,
			events.Tablet:       *tablets,
		},
		Hours:     *hours,
		StartHour: *startHour,
	}
	d, err := cptgen.GenerateGroundTruth(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := cptgen.SaveTrace(*out, d); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %s\n", *out, d.Summarize())
}
