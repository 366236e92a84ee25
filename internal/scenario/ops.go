package scenario

import (
	"slices"

	"cptgpt/internal/events"
	"cptgpt/internal/trace"
)

// mix64 is the SplitMix64 finalizer: a cheap, high-quality stateless hash
// used to derive all operator randomness from (spec seed, op index, UE,
// event) tuples — stateless so a UE's transformed stream never depends on
// which chunk or worker produced it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opRand returns a deterministic uniform in [0, 1) for an (op seed, UE,
// draw index) tuple.
func opRand(seed, ue, n uint64) float64 {
	h := mix64(seed ^ mix64(ue) ^ mix64(n^0x6a09e667f3bcc909))
	return float64(h>>11) / (1 << 53)
}

// compiledOp is an OpSpec resolved against the spec: parsed event type and
// a per-op seed.
type compiledOp struct {
	spec OpSpec
	ev   events.Type
	seed uint64
}

// compileOps resolves the spec's operators targeting source srcID, in spec
// order. Op seeds mix the spec seed with the op's index so two identical
// ops draw independent randomness.
func compileOps(spec *Spec, srcID string) ([]compiledOp, error) {
	var out []compiledOp
	for i := range spec.Ops {
		op := &spec.Ops[i]
		if op.Source != "" && op.Source != srcID {
			continue
		}
		c := compiledOp{spec: *op, seed: spec.Seed ^ mix64(uint64(i)+0x517cc1b727220a95)}
		if op.Op == "amplify" {
			ev, err := events.ParseType(op.Event)
			if err != nil {
				return nil, err
			}
			c.ev = ev
		}
		out = append(out, c)
	}
	return out, nil
}

// opScratch is applyOps' memory, kept across calls: the rewritten stream,
// and a spare buffer amplify writes into while it reads the other (the two
// trade places at each amplify).
type opScratch struct{ evs, spare []trace.Event }

// applyOps rewrites one UE stream through the source's operator chain, then
// clamps it to [0, horizon) and restores time order. ue is the UE's global
// key; the rewritten events live in sc's memory and the stream's Events
// slice is repointed at them, so callers must copy events out before the
// next applyOps call on the same scratch.
//
// Contract (the chunk sort rests on it, see chunkSorter.order): on return
// every event time t satisfies 0 <= t < horizon — so no NaN, no negative
// number, at most a -0 — and times never decrease along the stream.
func applyOps(ops []compiledOp, s *trace.Stream, ue uint64, horizon float64, sc *opScratch) {
	evs := append(sc.evs[:0], s.Events...)
	for i := range ops {
		evs = ops[i].apply(evs, ue, &sc.spare)
	}
	// Clamp to the scenario horizon and drop pre-origin events.
	kept := evs[:0]
	for _, e := range evs {
		if e.Time >= 0 && e.Time < horizon {
			kept = append(kept, e)
		}
	}
	evs = kept
	// Only amplify's jitter and custom sources hand over a stream that is
	// not already in time order.
	if !slices.IsSortedFunc(evs, byTime) {
		slices.SortStableFunc(evs, byTime)
	}
	s.Events = evs
	sc.evs = evs
}

// byTime compares two events' times (never NaN after the clamp).
func byTime(a, b trace.Event) int {
	switch {
	case a.Time < b.Time:
		return -1
	case a.Time > b.Time:
		return 1
	}
	return 0
}

// apply rewrites evs in place and returns the result; amplify, which both
// reads and appends, writes into *spare instead and leaves evs there as the
// next spare.
func (c *compiledOp) apply(evs []trace.Event, ue uint64, spare *[]trace.Event) []trace.Event {
	w0, w1 := c.spec.Window[0], c.spec.Window[1]
	switch c.spec.Op {
	case "ramp":
		if len(evs) == 0 {
			return evs
		}
		u := opRand(c.seed, ue, 0)
		switch c.spec.Shape {
		case "front":
			u = u * u
		case "spike":
			u = u * u * u * u
		}
		shift := w0 + u*(w1-w0) - evs[0].Time
		for i := range evs {
			evs[i].Time += shift
		}

	case "amplify":
		whole := int(c.spec.Factor)
		frac := c.spec.Factor - float64(whole)
		out := (*spare)[:0]
		for i, e := range evs {
			out = append(out, e)
			if e.Type != c.ev || e.Time < w0 || e.Time >= w1 {
				continue
			}
			copies := whole - 1
			if frac > 0 && opRand(c.seed, ue, uint64(i)*2+1) < frac {
				copies++
			}
			for j := 0; j < copies; j++ {
				jit := 0.5 * opRand(c.seed^uint64(j+1), ue, uint64(i)*2+2)
				t := e.Time + jit
				if t >= w1 {
					t = e.Time
				}
				out = append(out, trace.Event{Time: t, Type: e.Type})
			}
		}
		*spare = evs
		return out

	case "thin":
		kept := evs[:0]
		for i, e := range evs {
			if e.Time >= w0 && e.Time < w1 && opRand(c.seed, ue, uint64(i)) < c.spec.Prob {
				continue
			}
			kept = append(kept, e)
		}
		return kept

	case "compress":
		f := c.spec.Factor
		for i := range evs {
			t := evs[i].Time
			switch {
			case t < w0:
			case t < w1:
				evs[i].Time = w0 + (t-w0)/f
			default:
				evs[i].Time = t - (w1-w0)*(1-1/f)
			}
		}

	case "clip":
		kept := evs[:0]
		for _, e := range evs {
			if e.Time >= w0 && e.Time < w1 {
				kept = append(kept, e)
			}
		}
		return kept
	}
	return evs
}
