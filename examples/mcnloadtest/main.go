// MCN load test: the paper's motivating use case (§2.2) — drive a mobile
// core network implementation with synthesized control-plane traffic and
// measure its load, latency and autoscaling behaviour.
//
// This example runs the pipeline twice:
//
//  1. in-process, against the virtual-time MCN simulator (deterministic
//     latency/autoscaling numbers), and
//  2. over TCP, against the replaynet MCN frontend — a real networked
//     load test. ReplayOverTCP writes the workload unpaced, as fast as the
//     connection allows; to keep each event at its trace time on the wire,
//     run the workload as a scenario with compression (cptscenario
//     -compression, or POST /runs "compression" on cptserved).
package main

import (
	"fmt"
	"log"

	cptgen "cptgpt"
	"cptgpt/internal/events"
)

func main() {
	log.SetFlags(0)

	// Train a small CPT-GPT model on ground truth and synthesize the
	// workload that will drive the MCN.
	gtCfg := cptgen.DefaultGroundTruthConfig()
	gtCfg.UEs = map[events.DeviceType]int{cptgen.Phone: 250}
	gtCfg.Hours = 1
	real, err := cptgen.GenerateGroundTruth(gtCfg)
	if err != nil {
		log.Fatal(err)
	}
	cfg := cptgen.DefaultCPTGPTConfig()
	cfg.Epochs = 8
	model, err := cptgen.TrainCPTGPT(real, cfg, cptgen.CPTGPTTrainOpts{})
	if err != nil {
		log.Fatal(err)
	}
	// StartWindow staggers stream starts over 30 minutes so the MCN sees a
	// realistic arrival pattern rather than a synchronized attach storm.
	workload, err := model.Generate(cptgen.CPTGPTGenOpts{
		NumStreams: 500, Device: cptgen.Phone, Seed: 7, StartWindow: 1800,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("synthesized workload:", workload.Summarize())

	// --- 1. Virtual-time MCN simulation -------------------------------
	mcnCfg := cptgen.DefaultMCNConfig()
	rep, err := cptgen.SimulateMCN(workload, mcnCfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsimulated MCN (virtual time):\n")
	fmt.Printf("  events processed:    %d (rejected %d semantically invalid)\n", rep.Events, rep.Rejected)
	fmt.Printf("  latency mean/p95/p99: %.1f / %.1f / %.1f ms\n",
		1000*rep.MeanLatencySec, 1000*rep.P95LatencySec, 1000*rep.P99LatencySec)
	fmt.Printf("  peak arrival rate:   %.1f events/s\n", rep.PeakRate)
	fmt.Printf("  peak CONNECTED UEs:  %d (per-UE state the core must hold)\n", rep.PeakConnectedUEs)
	fmt.Printf("  autoscaler high-water mark: %d instances\n", rep.MaxInstancesUsed)

	// --- 2. Networked replay over TCP ---------------------------------
	srv, err := cptgen.ListenMCN("127.0.0.1:0", cptgen.Gen4G)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("\nreplaying over TCP to %s (unpaced)...\n", srv.Addr())

	stats, err := cptgen.ReplayOverTCP(srv.Addr().String(), workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server accounting: %d events, %d rejected, peak CONNECTED UEs %d\n",
		stats.Events, stats.Rejected, stats.PeakConnectedUEs)
	fmt.Printf("per-type counts: %v\n", stats.ByType)
}
