// Command cptscenario runs a declarative workload scenario through the
// streaming pipeline into a chosen sink.
//
// Usage:
//
//	cptscenario -list
//	cptscenario -spec flash-crowd -ues 1000000 -sink mcn
//	cptscenario -spec my-scenario.json -ues 100000 -sink jsonl -out events.jsonl.gz
//	cptscenario -spec handover-storm -save-spec storm.json
//	cptscenario -spec paging-storm -sink replay -addr 127.0.0.1:9000 -compression 600
//	cptscenario -spec my-model-mix.json -ues 1000000 -precision f32 -speculative on -draft-k 4 -sink mcn
//
// -spec accepts a built-in name or a JSON spec path. Sinks: "count" (drain
// and summarize), "mcn" (the simulated mobile-core NF), "jsonl"/"csv"
// (event-interleaved trace files, ".gz"-transparent) and "replay" (write
// onto a replaynet TCP server) — built and validated by the sink registry
// in internal/scenario, which refuses a flag the chosen sink cannot use.
// -compression c plays c trace-seconds per wall second into any sink (the
// daemon's POST /runs "compression"); 0, the default, runs unpaced.
// Peak memory is O(-batch), independent of -ues, and output is
// bit-identical at every -parallelism and -batch.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	cptgen "cptgpt"
	"cptgpt/internal/scenario"
	"cptgpt/internal/tracez"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cptscenario: ")

	var (
		specArg  = flag.String("spec", "", "built-in scenario name or spec JSON path")
		list     = flag.Bool("list", false, "list built-in scenarios and exit")
		saveSpec = flag.String("save-spec", "", "write the resolved spec as JSON and exit")
		ues      = flag.Int("ues", 0, "total UE population (0 = the spec's default)")
		sink     = flag.String("sink", scenario.DefaultSink, "sink: "+scenario.SinkList())
		out      = flag.String("out", "", "output path for the file sinks (default stdout; .gz compresses)")
		addr     = flag.String("addr", "", "replaynet server address (replay sink; required there unless -replay-self)")
		compress = flag.Float64("compression", 0, "time compression for any sink: trace-seconds played per wall second (1 = real time; 0 = unpaced)")

		closedLoop = flag.Bool("closed-loop", false, "replay sink: acknowledged closed-loop driver (CUBIC window, RTT/RTO, reconnect-resume) instead of the open-loop driver")
		sloP99     = flag.Duration("slo-p99", 0, "replay sink: run the SLO-search controller, ramping offered load to the max sustained rate whose p99 transaction latency meets this SLO (implies -closed-loop)")
		sloRate    = flag.Float64("slo-rate", 0, "SLO search: initial probe rate in events/s (0 = default)")
		sloWindow  = flag.Int("slo-window", 0, "SLO search: acked events per probe window (0 = default)")

		replaySelf  = flag.Bool("replay-self", false, "replay sink: serve an in-process replaynet server instead of connecting to -addr (self-contained load tests)")
		selfService = flag.Duration("self-service-time", 0, "replay-self: per-event service time (rate-limits the in-process server at 1/value events/s per connection)")

		faultSeed    = flag.Uint64("fault-seed", 1, "fault injection: deterministic schedule seed")
		faultDrop    = flag.Float64("fault-drop", 0, "fault injection: per-write silent drop probability [0,1]")
		faultReset   = flag.Float64("fault-reset", 0, "fault injection: per-write connection reset probability [0,1]")
		faultPartial = flag.Float64("fault-partial", 0, "fault injection: per-write partial-write-then-sever probability [0,1]")
		faultStall   = flag.Float64("fault-stall", 0, "fault injection: per-call stall probability [0,1]")
		faultSide    = flag.String("fault-side", "client", "fault injection side: client, server (needs -replay-self) or both")
		par          = flag.Int("parallelism", 0, "generation worker count (0 = all cores); output is identical at any value")
		batch        = flag.Int("batch", 0, "UE streams per generation chunk (0 = default); output is identical at any value")
		fanIn        = flag.Int("fanin", 0, "merge fan-in bound (0 = default)")
		tmp          = flag.String("tmp", "", "spill directory (default system temp)")
		trace        = flag.Bool("trace", false, "record flight-recorder spans and dump the per-stage timing summary to stderr on exit")
		prec         = flag.String("precision", "", "override cptgpt sources' decode arithmetic: f64 (bit-exact) or f32 (fast float32 path); empty keeps each source's spec setting")
		specDec      = flag.String("speculative", "", "override cptgpt sources' speculative decoding: on or off; empty keeps each source's spec setting")
		draftK       = flag.Int("draft-k", 0, "override cptgpt sources' speculative draft chain length (0 keeps spec settings)")
	)
	flag.Parse()

	if *trace {
		tracez.Enable()
		// log.Fatal paths skip this: the summary is a success-path report.
		defer func() { fmt.Fprint(os.Stderr, tracez.Summary()) }()
	}

	// Validate up front: a typo in a decode override fails before -list,
	// -save-spec or any generation.
	opts := cptgen.ScenarioRunOpts{
		UEs: *ues, Parallelism: *par, BatchSize: *batch,
		MaxFanIn: *fanIn, TempDir: *tmp, Precision: *prec,
		Speculative: *specDec, DraftTokens: *draftK,
	}
	if err := opts.Validate(); err != nil {
		log.Fatal(err)
	}
	switch {
	case *compress < 0:
		log.Fatalf("-compression must be ≥ 0, got %v", *compress)
	case *compress > 0 && *sloP99 > 0:
		log.Fatal("-compression conflicts with -slo-p99: the SLO search sets the offered rate itself")
	}

	if *list {
		for _, name := range cptgen.BuiltinScenarios() {
			spec, err := cptgen.BuiltinScenario(name)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-24s %s\n", name, spec.Description)
		}
		return
	}
	if *specArg == "" {
		log.Fatal("-spec is required (see -list for built-ins)")
	}

	spec, err := loadSpec(*specArg)
	if err != nil {
		log.Fatal(err)
	}
	if *saveSpec != "" {
		if err := spec.Save(*saveSpec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *saveSpec)
		return
	}

	// Every flag that belongs to one sink lands in the sink's configuration,
	// so the registry's validation refuses it on a sink that cannot use it.
	cfg := scenario.SinkConfig{
		Name: *sink, Out: *out, Stdout: os.Stdout,
		Addr: *addr, ClosedLoop: *closedLoop || *sloP99 > 0,
	}
	fcfg := cptgen.FaultConfig{
		Seed: *faultSeed, DropProb: *faultDrop, ResetProb: *faultReset,
		PartialProb: *faultPartial, StallProb: *faultStall,
	}
	if err := fcfg.Validate(); err != nil {
		log.Fatal(err)
	}
	faultsOn := *faultDrop > 0 || *faultReset > 0 || *faultPartial > 0 || *faultStall > 0
	switch *faultSide {
	case "client", "server", "both":
	default:
		log.Fatalf("unknown -fault-side %q (want client, server or both)", *faultSide)
	}
	if faultsOn && *faultSide != "client" && !*replaySelf {
		log.Fatal("server-side fault injection requires -replay-self")
	}
	if faultsOn && *faultSide != "server" {
		cfg.Dial = cptgen.FaultDialer(fcfg)
	}
	if *replaySelf {
		cfg.Addr = "127.0.0.1:0" // where the in-process server will listen
	}
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}

	// log.Fatal skips deferred cleanup, so the stream (and its spill
	// directory) is closed explicitly before any fatal exit.
	start := time.Now()
	st, err := cptgen.OpenScenario(spec, opts)
	if err != nil {
		log.Fatal(err)
	}
	if *replaySelf {
		sopts := cptgen.ReplayServerOpts{ServiceTime: *selfService}
		if faultsOn && *faultSide != "client" {
			sopts.Fault = &fcfg
		}
		srv, err := cptgen.ListenMCNOpts(cfg.Addr, st.Generation(), sopts)
		if err != nil {
			st.Close()
			log.Fatal(err)
		}
		defer srv.Close()
		cfg.Addr = srv.Addr().String()
	}

	if *sloP99 > 0 {
		// The SLO search is a controller over the closed-loop transport,
		// not a sink: it re-offers the stream at rates of its own choosing.
		res, err := scenario.ReplaySLOSearch(cfg.Addr, st,
			cptgen.ReplayClosedOpts{Dial: cfg.Dial},
			cptgen.ReplaySearchOpts{SLOP99: *sloP99, InitialRate: *sloRate, WindowEvents: *sloWindow})
		st.Close()
		if err != nil {
			log.Fatal(err)
		}
		for i, r := range res.Rounds {
			fmt.Printf("round %2d: offered %8.1f/s achieved %8.1f/s p99 %8s  %s\n",
				i+1, r.Rate, r.Achieved, r.P99.Round(time.Microsecond),
				map[bool]string{true: "met", false: "VIOLATED"}[r.Met])
		}
		fmt.Printf("scenario %s slo-search in %v: max sustained rate %.1f events/s at p99 ≤ %v (converged=%v, %d rounds)\n",
			spec.Name, time.Since(start).Round(time.Millisecond), res.MaxRate, *sloP99, res.Converged, len(res.Rounds))
		fmt.Printf("transport: sent=%d acked=%d retx=%d reconnects=%d srtt=%v final_cwnd=%.1f\n",
			res.Transport.Sent, res.Transport.Acked, res.Transport.Retransmits,
			res.Transport.Reconnects, res.Transport.SRTT.Round(time.Microsecond), res.Transport.FinalCwnd)
		return
	}

	snk, err := scenario.NewSink(cfg)
	if err != nil {
		st.Close()
		log.Fatal(err)
	}
	// The pacer is the one clock of a paced run, whatever the sink.
	var src scenario.EventSource = st
	if *compress > 0 {
		src = scenario.NewPacer(context.Background(), st, *compress)
	}
	res, err := snk.Consume(context.Background(), src)
	st.Close()
	if err != nil {
		log.Fatal(err)
	}
	res.Report(os.Stdout, os.Stderr, spec.Name, time.Since(start))
}

// loadSpec resolves a built-in name or a spec file path.
func loadSpec(arg string) (*cptgen.ScenarioSpec, error) {
	if strings.ContainsAny(arg, "./\\") {
		return cptgen.LoadScenario(arg)
	}
	if spec, err := cptgen.BuiltinScenario(arg); err == nil {
		return spec, nil
	}
	return cptgen.LoadScenario(arg)
}
