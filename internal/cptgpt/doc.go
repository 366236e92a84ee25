// Package cptgpt implements CPT-GPT, the paper's decoder-only transformer
// for control-plane traffic generation (§4): a multi-modal tokenizer over
// (event type, interarrival, stop flag), next-token training with packed
// multi-stream minibatches in float64, and autoregressive decoding of
// arbitrarily many UE streams in float32 through a KV-cached BatchDecoder —
// one continuous slot scheduler (sampleSlots) whose draft length is 0 for
// plain decoding and DraftTokens for speculative (draft + multi-token
// verify) decoding.
//
// Determinism contract, per draft length:
//
//   - Plain decoding runs every decode pass — one row per slot or a draft
//     chain's several — through one float32 row body whose per-row
//     reduction orders are fixed, so it is deterministic per (Seed, kernel
//     set) at every Parallelism × BatchSize × slot grouping, and StepK over
//     k rows is bit-identical to k Steps. Each stream consumes only its own
//     index-seeded RNG and slot state, so who decodes it when cannot matter.
//     The kernel set (GEMM, GELU, attention) is the machine's: AVX2+FMA
//     where present (the GEMM's AVX-512 tiles, where the CPU has them,
//     compute the same bits), portable elsewhere; the two differ in
//     reduction order, hence in output bits.
//   - The decode has no float64 path. The package tests hold it to a serial
//     float64 reference decoder (itself held to Model.Forward): per token
//     within a logit tolerance, and per population within the fidelity
//     gates on violation rate and the sojourn and interarrival CDFs.
//   - Speculative decoding is deterministic per (Seed, DraftTokens, kernel
//     set) — its draft (Model.SelfDraft) is an n-gram fitted by decoding
//     under the machine's kernels and cached on the model — and
//     distributionally exact (acceptance–rejection preserves plain
//     sampling's per-position conditionals), but consumes RNG draws
//     differently from plain decoding, so streams differ event-by-event.
//
// Concurrency contract: a Model is safe for concurrent Generate /
// GenerateRange calls once trained (the frozen inference snapshot is built
// under a mutex and shared read-only); each BatchDecoder belongs to one
// goroutine at a time — a call's finished decoders go back to a pool on the
// Model for the next call — and a call's decoder goroutines times the shards
// each splits a pass into stay within GenOpts.Parallelism (one core budget
// per call, passes inline at a share of one). DecodeStats counters are atomics —
// GenOpts.Stats sinks are accumulated atomically as workers finish, and a snapshot may be read
// (atomically, field by field) from any goroutine while generation runs,
// which is what the scenario engine's SourceStats hook and the cptserved
// daemon's live decode telemetry rely on.
package cptgpt
