// Package synthetic generates the ground-truth control-plane workload that
// stands in for the paper's proprietary carrier trace (73M events from 430K
// UEs). See docs/ARCHITECTURE.md, "What stands in for the paper's
// substrate", for the rationale.
//
// The generator is a behavioural simulator, not a Markov model: each UE
// draws latent per-UE factors (activity level, mobility, session-length
// scale) from device-type-specific mixtures, then walks the 4G/5G UE state
// machine emitting semantically valid events whose sojourn times are
// modulated by (a) the latent factors, (b) an hour-of-day diurnal curve and
// (c) a two-state active-bout/dormant process that induces within-stream
// autocorrelation. A single semi-Markov model cannot represent (a)–(c),
// which is exactly why the paper's SMM-1 baseline underfits while the
// clustered SMM and the transformer do not — the same ordering the paper
// reports on the real trace.
//
// GenerateRange runs one chunk of the population at the degree its caller
// passes: a caller that already runs chunks in parallel (the scenario
// engine's chunk workers) passes each chunk its share of the cores, so the
// sampler never fans out under a fan-out.
package synthetic

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"cptgpt/internal/events"
	"cptgpt/internal/stats"
	"cptgpt/internal/tensor"
	"cptgpt/internal/trace"
)

// Config parameterizes a ground-truth trace generation run.
type Config struct {
	// Generation selects 4G or 5G event vocabulary and state machine.
	Generation events.Generation
	// Seed makes the run reproducible.
	Seed uint64
	// UEs gives the population per device type.
	UEs map[events.DeviceType]int
	// Hours is the horizon length; events are emitted in [0, 3600·Hours).
	Hours int
	// StartHour is the hour-of-day at t=0 (0–23), anchoring the diurnal
	// curve so hourly slices exhibit time-of-day drift.
	StartHour int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Hours <= 0 {
		return fmt.Errorf("synthetic: Hours must be positive, got %d", c.Hours)
	}
	if c.StartHour < 0 || c.StartHour > 23 {
		return fmt.Errorf("synthetic: StartHour must be in [0,23], got %d", c.StartHour)
	}
	total := 0
	for dev, n := range c.UEs {
		if !dev.Valid() {
			return fmt.Errorf("synthetic: invalid device type %v", dev)
		}
		if n < 0 {
			return fmt.Errorf("synthetic: negative UE count %d for %v", n, dev)
		}
		total += n
	}
	if total == 0 {
		return fmt.Errorf("synthetic: no UEs requested")
	}
	return nil
}

// DefaultConfig returns a small 4G configuration suitable for tests and the
// quickstart example: a few hundred UEs over a handful of hours.
func DefaultConfig() Config {
	return Config{
		Generation: events.Gen4G,
		Seed:       1,
		UEs: map[events.DeviceType]int{
			events.Phone:        120,
			events.ConnectedCar: 60,
			events.Tablet:       40,
		},
		Hours:     2,
		StartHour: 10,
	}
}

// profile holds the device-type behaviour parameters.
type profile struct {
	// connMix / idleMix are the base sojourn mixtures (seconds).
	connMix stats.Mixture
	idleMix stats.Mixture
	// hoRate is the expected handovers per connected second at mobility 1.
	hoRate float64
	// tauAfterHo is the probability a handover crosses a tracking-area
	// boundary and is followed by a TAU (4G only).
	tauAfterHo float64
	// idleTauPeriod is the mean periodic-TAU timer while idle (4G only).
	idleTauPeriod float64
	// detachProb is the probability an idle gap becomes a detach/re-attach
	// cycle instead.
	detachProb float64
	// offMean is the mean off-network duration after a detach.
	offMean float64
	// activitySigma / mobilitySigma control per-UE latent heterogeneity.
	activitySigma float64
	mobilitySigma float64
	// boutDormantFactor stretches idle gaps during dormant phases;
	// boutLen/dormantLen are the mean session counts per phase.
	boutDormantFactor float64
	boutLen           float64
	dormantLen        float64
	// boutExp / dormantExp are exp(−(boutLen−1)) and exp(−(dormantLen−1)),
	// the Knuth bounds of phaseLen's two Poisson draws.
	boutExp    float64
	dormantExp float64
	// diurnal is the activity multiplier per hour-of-day (larger = more
	// active = shorter idle gaps).
	diurnal [24]float64
}

func mustMixture(weights []float64, comps []stats.Sampler) stats.Mixture {
	m, err := stats.NewMixture(weights, comps)
	if err != nil {
		panic(err)
	}
	return m
}

// profileTable is the per-device behaviour table, indexed by device, built
// once per process.
var profileTable = profiles()

// profiles builds the per-device behaviour table. Numbers are chosen so
// the emergent statistics track the paper's real-trace shape: SRV_REQ and
// S1_CONN_REL each ≈44–48% of events, connected cars with ~3× the HO/TAU
// share of phones, connected sojourns mostly 5–50 s, idle gaps 10–1000 s
// heavy-tailed, and tablets sparser than phones.
func profiles() [events.NumDeviceTypes]profile {
	phoneDiurnal := diurnalCurve(0.35, 9, 21, 1.0)
	carDiurnal := diurnalCurve(0.15, 8, 18, 1.1)
	tabletDiurnal := diurnalCurve(0.25, 17, 23, 0.9)
	table := [events.NumDeviceTypes]profile{
		events.Phone: {
			connMix: mustMixture(
				[]float64{0.65, 0.30, 0.05},
				[]stats.Sampler{
					stats.LogNormal{Mu: math.Log(9), Sigma: 0.55},
					stats.LogNormal{Mu: math.Log(28), Sigma: 0.5},
					stats.LogNormal{Mu: math.Log(90), Sigma: 0.6},
				}),
			idleMix: mustMixture(
				[]float64{0.5, 0.35, 0.15},
				[]stats.Sampler{
					stats.LogNormal{Mu: math.Log(25), Sigma: 0.7},
					stats.LogNormal{Mu: math.Log(120), Sigma: 0.8},
					stats.LogNormal{Mu: math.Log(700), Sigma: 0.9},
				}),
			hoRate:        0.0022,
			tauAfterHo:    0.45,
			idleTauPeriod: 3200,
			detachProb:    0.002,
			offMean:       900,
			activitySigma: 0.75,
			mobilitySigma: 0.8,

			boutDormantFactor: 3.5,
			boutLen:           6,
			dormantLen:        2,
			diurnal:           phoneDiurnal,
		},
		events.ConnectedCar: {
			connMix: mustMixture(
				[]float64{0.55, 0.45},
				[]stats.Sampler{
					stats.LogNormal{Mu: math.Log(14), Sigma: 0.5},
					stats.LogNormal{Mu: math.Log(60), Sigma: 0.65},
				}),
			idleMix: mustMixture(
				[]float64{0.45, 0.4, 0.15},
				[]stats.Sampler{
					stats.LogNormal{Mu: math.Log(40), Sigma: 0.6},
					stats.LogNormal{Mu: math.Log(260), Sigma: 0.7},
					stats.LogNormal{Mu: math.Log(1500), Sigma: 0.8},
				}),
			hoRate:        0.0085,
			tauAfterHo:    0.55,
			idleTauPeriod: 2400,
			detachProb:    0.012,
			offMean:       2500,
			activitySigma: 0.9,
			mobilitySigma: 1.0,

			boutDormantFactor: 5.0, // driving bouts vs parked
			boutLen:           8,
			dormantLen:        3,
			diurnal:           carDiurnal,
		},
		events.Tablet: {
			connMix: mustMixture(
				[]float64{0.6, 0.4},
				[]stats.Sampler{
					stats.LogNormal{Mu: math.Log(12), Sigma: 0.6},
					stats.LogNormal{Mu: math.Log(45), Sigma: 0.7},
				}),
			idleMix: mustMixture(
				[]float64{0.4, 0.35, 0.25},
				[]stats.Sampler{
					stats.LogNormal{Mu: math.Log(35), Sigma: 0.7},
					stats.LogNormal{Mu: math.Log(200), Sigma: 0.8},
					stats.LogNormal{Mu: math.Log(1200), Sigma: 0.9},
				}),
			hoRate:        0.0019,
			tauAfterHo:    0.5,
			idleTauPeriod: 2800,
			detachProb:    0.011,
			offMean:       3200,
			activitySigma: 1.0,
			mobilitySigma: 0.7,

			boutDormantFactor: 4.0,
			boutLen:           5,
			dormantLen:        3,
			diurnal:           tabletDiurnal,
		},
	}
	for i := range table {
		p := &table[i]
		p.boutExp = math.Exp(-(p.boutLen - 1))
		p.dormantExp = math.Exp(-(p.dormantLen - 1))
	}
	return table
}

// diurnalCurve builds a 24-hour activity multiplier: a raised-cosine bump
// between peakStart and peakEnd hours on a floor of base, scaled by amp.
func diurnalCurve(base float64, peakStart, peakEnd int, amp float64) [24]float64 {
	var out [24]float64
	for h := 0; h < 24; h++ {
		v := base
		if inHourRange(h, peakStart, peakEnd) {
			span := float64((peakEnd - peakStart + 24) % 24)
			if span == 0 {
				span = 1
			}
			pos := float64((h-peakStart+24)%24) / span
			v = base + amp*(0.5-0.5*math.Cos(2*math.Pi*pos))*1.2
		}
		if v < 0.05 {
			v = 0.05
		}
		out[h] = v
	}
	return out
}

func inHourRange(h, start, end int) bool {
	if start <= end {
		return h >= start && h <= end
	}
	return h >= start || h <= end
}

// ueLatent holds a UE's per-stream latent factors.
type ueLatent struct {
	activity float64 // >1 means more sessions (shorter idle gaps)
	mobility float64 // >1 means more handovers
	connScal float64 // stretches connected sojourns
}

// TotalUEs returns the configured population size across device types —
// the exclusive upper bound of the global UE index space GenerateRange
// addresses.
func TotalUEs(cfg Config) int {
	var n int
	for _, dev := range events.DeviceTypes() {
		n += cfg.UEs[dev]
	}
	return n
}

// deviceOfIndex maps a global UE index (device-major canonical order) to
// its device type and per-device index; counts holds the population per
// device.
func deviceOfIndex(counts *[events.NumDeviceTypes]int, idx int) (events.DeviceType, int) {
	for dev, n := range counts {
		if idx < n {
			return events.DeviceType(dev), idx
		}
		idx -= n
	}
	panic("synthetic: UE index out of range")
}

// simWorkPerUE is the rough per-UE simulation cost fed to the worker pool's
// fan-out heuristic; one UE is always worth sharding.
const simWorkPerUE = 1 << 20

// Generate produces a ground-truth dataset according to cfg. Streams are
// time-ordered and semantically valid with respect to the generation's
// hierarchical state machine.
//
// UE simulation fans out across the tensor worker pool at the global
// degree; because every UE consumes only its own index-seeded RNG, the
// output is bit-identical to the serial loop at any parallelism degree.
func Generate(cfg Config) (*trace.Dataset, error) {
	streams, err := GenerateRange(cfg, 0, TotalUEs(cfg), tensor.Parallelism())
	if err != nil {
		return nil, err
	}
	d := &trace.Dataset{Generation: cfg.Generation}
	for i := range streams {
		if len(streams[i].Events) > 0 {
			d.Streams = append(d.Streams, streams[i])
		}
	}
	return d, nil
}

// GenerateRange simulates the UEs with global indices in [lo, hi) — the
// canonical device-major order Generate uses — and returns their streams in
// index order, including streams that emitted no events (Generate drops
// those; chunked consumers filter as they see fit). Each UE draws only from
// its own index-seeded RNG, so the concatenation of arbitrary chunk
// emissions is bit-identical to one full run: the streaming scenario engine
// leans on exactly this to synthesize million-UE populations in
// O(chunk)-memory. The UEs are split over at most p workers of the tensor
// pool (p ≤ 1 runs them on the calling goroutine); p never changes a bit.
func GenerateRange(cfg Config, lo, hi, p int) ([]trace.Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if total := TotalUEs(cfg); lo < 0 || hi < lo || hi > total {
		return nil, fmt.Errorf("synthetic: UE range [%d,%d) outside [0,%d)", lo, hi, total)
	}
	var counts [events.NumDeviceTypes]int
	for dev := range counts {
		counts[dev] = cfg.UEs[events.DeviceType(dev)]
	}
	streams := make([]trace.Stream, hi-lo)
	tensor.ParallelForN(p, hi-lo, simWorkPerUE, func(jlo, jhi int) {
		var sim ueSim
		sim.rng = rand.New(&sim.pcg)
		for j := jlo; j < jhi; j++ {
			dev, i := deviceOfIndex(&counts, lo+j)
			streams[j] = sim.run(cfg, dev, i)
		}
	})
	return streams, nil
}

// ueSim is one worker's simulation state, reused from UE to UE: the RNG is
// reseeded per UE, and a UE's events and handover times are drawn into
// scratch that only its exact-size output copy leaves.
type ueSim struct {
	pcg    rand.PCG
	rng    *rand.Rand
	events []trace.Event
	hoTime []float64
}

// run simulates UE idx of device dev over the horizon.
func (sim *ueSim) run(cfg Config, dev events.DeviceType, idx int) trace.Stream {
	p := &profileTable[dev]
	// Derive a per-UE seed so UE streams are independent of population
	// sizes of other device types.
	stats.Reseed(&sim.pcg, cfg.Seed^(uint64(dev)+1)<<32^uint64(idx)*0x9e3779b97f4a7c15)
	rng := sim.rng
	lat := ueLatent{
		activity: math.Exp(p.activitySigma * rng.NormFloat64()),
		mobility: math.Exp(p.mobilitySigma * rng.NormFloat64()),
		connScal: math.Exp(0.4 * rng.NormFloat64()),
	}
	s := trace.Stream{UEID: trace.UEID("", dev, idx), Device: dev}
	sim.events = sim.simulate(cfg, p, lat, 3600*float64(cfg.Hours), sim.events[:0])
	if len(sim.events) > 0 {
		s.Events = make([]trace.Event, len(sim.events))
		copy(s.Events, sim.events)
		s.SortByTime()
	}
	return s
}

// simulate walks one UE through the state machine over [0, horizon),
// appending its events to evs in emission order.
func (sim *ueSim) simulate(cfg Config, p *profile, lat ueLatent, horizon float64, evs []trace.Event) []trace.Event {
	rng := sim.rng
	is5G := cfg.Generation == events.Gen5G
	emit := func(t float64, e events.Type) {
		evs = append(evs, trace.Event{Time: t, Type: e})
	}

	// Bout/dormant modulation: a session-count-driven phase process.
	inBout := rng.Float64() < p.boutLen/(p.boutLen+p.dormantLen)
	sessionsLeft := phaseLen(rng, p, inBout)

	// UEs start detached and attach after a short initial stagger so the
	// trace does not begin with a synchronized attach storm.
	t := rng.Float64() * 120 * (1 / math.Max(lat.activity, 0.05))
	if t >= horizon {
		return evs
	}
	if is5G {
		emit(t, events.Register)
	} else {
		emit(t, events.Attach)
	}

	connected := true // attach established a signaling connection
	for t < horizon {
		if connected {
			// Connected sojourn, scaled by the UE's session-length factor.
			dur := p.connMix.Sample(rng) * lat.connScal
			if dur < 0.2 {
				dur = 0.2
			}
			end := t + dur
			// Handovers within the visit: Poisson thinning over the visit.
			nHO := poisson(rng, p.hoRate*lat.mobility*dur)
			hoTimes := sim.hoTime[:0]
			for k := 0; k < nHO; k++ {
				hoTimes = append(hoTimes, t+rng.Float64()*dur)
			}
			slices.Sort(hoTimes)
			sim.hoTime = hoTimes
			for _, ht := range hoTimes {
				if ht >= horizon {
					break
				}
				emit(ht, events.Handover)
				if !is5G && rng.Float64() < p.tauAfterHo {
					tt := ht + 0.3 + rng.Float64()*1.5
					if tt < end && tt < horizon {
						emit(tt, events.TAU)
					}
				}
			}
			if end >= horizon {
				break
			}
			t = end
			if is5G {
				emit(t, events.ANRel)
			} else {
				emit(t, events.S1ConnRel)
			}
			connected = false
			sessionsLeft--
			if sessionsLeft <= 0 {
				inBout = !inBout
				sessionsLeft = phaseLen(rng, p, inBout)
			}
			continue
		}

		// Idle gap: base mixture over activity and diurnal modulation;
		// dormant phases stretch the gap.
		diurnal := p.diurnal[(cfg.StartHour+int(t/3600))%24]
		gap := p.idleMix.Sample(rng) / math.Max(lat.activity*diurnal, 0.02)
		if !inBout {
			gap *= p.boutDormantFactor
		}
		if gap < 0.5 {
			gap = 0.5
		}

		if rng.Float64() < p.detachProb {
			// Detach/re-attach cycle.
			dt := t + math.Min(gap, 5+rng.Float64()*20)
			if dt >= horizon {
				break
			}
			if is5G {
				emit(dt, events.Deregister)
			} else {
				emit(dt, events.Detach)
			}
			off := p.offMean * (0.3 + rng.ExpFloat64())
			rt := dt + off
			if rt >= horizon {
				break
			}
			if is5G {
				emit(rt, events.Register)
			} else {
				emit(rt, events.Attach)
			}
			t = rt
			connected = true
			continue
		}

		// Periodic TAUs while idle (4G only).
		if !is5G {
			next := t + p.idleTauPeriod*(0.8+0.4*rng.Float64())
			for next < t+gap && next < horizon {
				emit(next, events.TAU)
				next += p.idleTauPeriod * (0.8 + 0.4*rng.Float64())
			}
		}
		t += gap
		if t >= horizon {
			break
		}
		emit(t, events.ServiceRequest)
		connected = true
	}
	return evs
}

// phaseLen draws the number of sessions in the next bout/dormant phase:
// 1 + Poisson(mean−1) for the phase's mean session count by Knuth's loop,
// with its bound precomputed in the profile. Every profile's phase means
// lie in (1, 31], where poisson(mean−1) runs that same loop.
func phaseLen(rng *rand.Rand, p *profile, inBout bool) int {
	l := p.dormantExp
	if inBout {
		l = p.boutExp
	}
	return 1 + knuth(rng, rng.Float64(), l)
}

// poissonEps is the margin poisson's zero shortcut keeps below 1 − mean.
// It dwarfs both the rounding of 1 − mean and math.Exp's last-ulp error,
// so a uniform below 1 − mean − poissonEps is below math.Exp(−mean) too.
const poissonEps = 0x1p-40

// poisson draws a Poisson variate with the given mean (Knuth's method for
// small means, normal approximation above 30).
func poisson(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
		if v < 0 {
			v = 0
		}
		return v
	}
	u := rng.Float64()
	if u < 1-mean-poissonEps {
		// exp(−mean) ≥ 1 − mean, so Knuth's first test returns 0; small
		// means (the handover draws') skip math.Exp almost every time.
		return 0
	}
	return knuth(rng, u, math.Exp(-mean))
}

// knuth finishes Knuth's Poisson draw with bound l = exp(−mean) from the
// first uniform u: it counts further uniforms multiplied into the running
// product until the product falls to l or below.
func knuth(rng *rand.Rand, u, l float64) int {
	k := 0
	for p := u; p > l; k++ {
		p *= rng.Float64()
	}
	return k
}
