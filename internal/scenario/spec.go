// Package scenario is the declarative workload-composition engine: it turns
// a JSON scenario spec — named traffic sources plus composable operators
// over time windows — into a streaming, time-ordered control-plane event
// sequence that downstream sinks (trace writers, the MCN simulator, the TCP
// replay client) consume incrementally.
//
// The paper's position (§2.2) is that synthetic control-plane traffic is
// only useful insofar as it can drive downstream MCN studies, and the
// workloads those studies need are *scenarios*: signaling storms, flash
// crowds, device-mix and diurnal shifts. The spec language names the
// scenario once; the engine reproduces it at any population size.
//
// Execution is streaming end-to-end. Sources emit per-UE streams in chunks
// (CPT-GPT chunks decode batched through the shared-cache BatchDecoder;
// the synthetic ground-truth generator simulates index ranges); operators
// rewrite each stream in isolation; each chunk's events are sorted and
// spilled to a compact binary run file; and a bounded fan-in k-way merge
// yields the globally time-ordered event iterator. Peak memory is
// O(chunk) + O(merge fan-in), independent of the UE count, which is what
// makes million-UE scenarios tractable.
//
// Determinism contract: every UE stream depends only on its own
// index-seeded randomness (derived from the spec seed) and the merge key
// (Time, UE, Seq) is a total order, so for a fixed spec, seed and decode
// kernel set the emitted sequence is bit-identical at every Parallelism ×
// BatchSize × MaxFanIn and across cancellation-free reruns. Operators are
// deterministic in the (seed, op index, UE) triple.
//
// Concurrency contract: OpenContext fans generation across workers
// internally and is safe to call from many goroutines at once (each call
// owns its spill directory); the returned Stream — and any Pacer or other
// EventSource wrapped around it — is single-consumer: exactly one
// goroutine may call Next/Close. The Pacer's observational counters
// (Events, Lag, Stopped) and any RunOpts.SourceStats sinks are atomic and
// may be read concurrently while the pipeline runs; that is the seam the
// cptserved daemon's live telemetry hangs off.
package scenario

import (
	"encoding/json"
	"fmt"
	"os"

	"cptgpt/internal/events"
)

// Spec is a declarative scenario: a population of traffic sources plus
// operators applied over time windows. Specs are plain JSON, loadable and
// saveable, and the built-in registry (Builtin) ships named presets.
type Spec struct {
	// Name identifies the scenario (registry key for built-ins).
	Name string `json:"name"`
	// Description says what the scenario models.
	Description string `json:"description,omitempty"`
	// Generation is "4G" or "5G".
	Generation string `json:"generation"`
	// Seed fixes all scenario randomness (source synthesis and operators).
	Seed uint64 `json:"seed"`
	// HorizonSec is the scenario length; events at or past it are dropped.
	HorizonSec float64 `json:"horizon_sec"`
	// Population is the default total UE count across sources; RunOpts.UEs
	// overrides it, which is how one spec scales from a smoke test to a
	// million-UE run.
	Population int `json:"population"`
	// Sources name the traffic generators composing the scenario.
	Sources []SourceSpec `json:"sources"`
	// Ops are the operators, applied in order to their target sources.
	Ops []OpSpec `json:"ops,omitempty"`
}

// SourceSpec names one traffic source and its population share.
type SourceSpec struct {
	// ID names the source within the spec (operator target, UE-id prefix).
	ID string `json:"id"`
	// Kind selects the generator: "synthetic" (the behavioural ground-truth
	// simulator, the default), "cptgpt" (a trained CPT-GPT model loaded
	// from ModelFile), or "custom" (bound at run time via RunOpts.Sources —
	// how in-memory SMM/NetShare/CPT-GPT models plug in).
	Kind string `json:"kind"`
	// Share is the source's fraction of the total population. Shares are
	// normalized over the spec, so they need not sum to 1.
	Share float64 `json:"share"`
	// DeviceMix gives per-device population fractions for synthetic
	// sources (keys "phone", "connected_car", "tablet"); nil means the
	// default carrier-like mix.
	DeviceMix map[string]float64 `json:"device_mix,omitempty"`
	// StartHour anchors the synthetic source's diurnal curve (0-23).
	StartHour int `json:"start_hour,omitempty"`
	// ModelFile is the trained model path for kind "cptgpt".
	ModelFile string `json:"model_file,omitempty"`
	// Device labels streams generated by model sources.
	Device string `json:"device,omitempty"`
	// Temperature scales model sampling logits (0 means 1: faithful).
	Temperature float64 `json:"temperature,omitempty"`
	// Precision names the decode arithmetic of kind "cptgpt": empty, "f32"
	// or "float32", the only one there is. It remains only because the
	// benchmark harness (cptbench) writes "f32"; "f64" fails Validate.
	Precision string `json:"precision,omitempty"`
	// Speculative enables speculative decoding for kind "cptgpt": a draft
	// model (the cptgpt model's self-fitted n-gram) proposes DraftTokens
	// tokens per UE and one multi-token pass verifies them, with
	// acceptance–rejection keeping the output distribution exact.
	// RunOpts.Speculative overrides it run-wide.
	Speculative bool `json:"speculative,omitempty"`
	// DraftTokens is the speculation depth for kind "cptgpt" (0 = the
	// engine default); RunOpts.DraftTokens overrides it run-wide.
	DraftTokens int `json:"draft_tokens,omitempty"`
}

// OpSpec is one composable operator over a time window.
//
// Operators rewrite each UE stream in isolation, deterministically in the
// (spec seed, op index, UE) triple:
//
//   - "ramp":     shift each UE's stream so it starts inside Window;
//     Shape is "uniform" (spread evenly), "front" (biased
//     early) or "spike" (concentrated at the window start).
//   - "amplify":  multiply events of type Event inside Window by Factor
//     (fractional factors amplify probabilistically).
//   - "thin":     drop events inside Window with probability Prob.
//   - "compress": speed time up by Factor inside Window (the window's
//     events pack into its first 1/Factor; later events shift
//     earlier), multiplying the window's event rate by Factor.
//   - "clip":     keep only events inside Window.
type OpSpec struct {
	// Op is the operator name: ramp, amplify, thin, compress or clip.
	Op string `json:"op"`
	// Source targets one source ID; empty targets every source.
	Source string `json:"source,omitempty"`
	// Window is the [start, end) time window in seconds.
	Window [2]float64 `json:"window"`
	// Shape tunes ramp: "uniform", "front" or "spike".
	Shape string `json:"shape,omitempty"`
	// Event names the event type amplify targets (e.g. "HO", "SRV_REQ").
	Event string `json:"event,omitempty"`
	// Factor parameterizes amplify (≥ 1) and compress (> 1).
	Factor float64 `json:"factor,omitempty"`
	// Prob parameterizes thin (drop probability in [0, 1]).
	Prob float64 `json:"prob,omitempty"`
}

// gen parses the spec's generation.
func (s *Spec) gen() (events.Generation, error) {
	return events.ParseGeneration(s.Generation)
}

// Validate checks the spec.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	gen, err := s.gen()
	if err != nil {
		return fmt.Errorf("scenario: %s: %w", s.Name, err)
	}
	if s.HorizonSec <= 0 {
		return fmt.Errorf("scenario: %s: horizon_sec must be positive, got %v", s.Name, s.HorizonSec)
	}
	if s.Population < 0 {
		return fmt.Errorf("scenario: %s: population must be ≥ 0, got %d", s.Name, s.Population)
	}
	if len(s.Sources) == 0 {
		return fmt.Errorf("scenario: %s: no sources", s.Name)
	}
	seen := make(map[string]bool)
	var share float64
	for i := range s.Sources {
		src := &s.Sources[i]
		if src.ID == "" {
			return fmt.Errorf("scenario: %s: source %d has no id", s.Name, i)
		}
		if seen[src.ID] {
			return fmt.Errorf("scenario: %s: duplicate source id %q", s.Name, src.ID)
		}
		seen[src.ID] = true
		// Every source parses for a nominal population of one UE; the
		// parsed form is for runs (resolveSources) and dropped here.
		if _, err := src.parse(s, gen, 0, 1); err != nil {
			return fmt.Errorf("scenario: %s: source %q: %w", s.Name, src.ID, err)
		}
		if src.Share < 0 {
			return fmt.Errorf("scenario: %s: source %q: negative share", s.Name, src.ID)
		}
		share += src.Share
	}
	if share <= 0 {
		return fmt.Errorf("scenario: %s: source shares sum to zero", s.Name)
	}
	for i := range s.Ops {
		op := &s.Ops[i]
		if op.Source != "" && !seen[op.Source] {
			return fmt.Errorf("scenario: %s: op %d targets unknown source %q", s.Name, i, op.Source)
		}
		if op.Window[1] <= op.Window[0] || op.Window[0] < 0 {
			return fmt.Errorf("scenario: %s: op %d window %v is empty or negative", s.Name, i, op.Window)
		}
		switch op.Op {
		case "ramp":
			switch op.Shape {
			case "", "uniform", "front", "spike":
			default:
				return fmt.Errorf("scenario: %s: op %d: unknown ramp shape %q", s.Name, i, op.Shape)
			}
		case "amplify":
			if _, err := events.ParseType(op.Event); err != nil {
				return fmt.Errorf("scenario: %s: op %d: %w", s.Name, i, err)
			}
			if op.Factor < 1 {
				return fmt.Errorf("scenario: %s: op %d: amplify factor must be ≥ 1, got %v", s.Name, i, op.Factor)
			}
		case "thin":
			if op.Prob < 0 || op.Prob > 1 {
				return fmt.Errorf("scenario: %s: op %d: thin prob must be in [0,1], got %v", s.Name, i, op.Prob)
			}
		case "compress":
			if op.Factor <= 1 {
				return fmt.Errorf("scenario: %s: op %d: compress factor must be > 1, got %v", s.Name, i, op.Factor)
			}
		case "clip":
		default:
			return fmt.Errorf("scenario: %s: op %d: unknown op %q", s.Name, i, op.Op)
		}
	}
	return nil
}

// Save writes the spec as indented JSON.
func (s *Spec) Save(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("scenario: encoding spec %s: %w", s.Name, err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("scenario: writing spec: %w", err)
	}
	return nil
}

// Load reads and validates a spec from a JSON file.
func Load(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: reading spec: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// sourceShares returns each source's UE count for a total population,
// normalizing shares and distributing rounding remainders deterministically
// (largest fractional part first, ties by source order).
func sourceShares(spec *Spec, total int) []int {
	weights := make([]float64, len(spec.Sources))
	for i := range spec.Sources {
		weights[i] = spec.Sources[i].Share
	}
	return apportion(weights, total)
}
