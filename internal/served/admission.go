package served

import (
	"fmt"
	"sync/atomic"
	"time"

	"cptgpt/internal/scenario"
)

// Admission rejection reasons — which daemon-wide budget a submission ran
// into. They label the 429 body and the rejected-counter's reason.
const (
	AdmitActiveRuns = "active_runs"
	AdmitTotalUEs   = "total_ues"
	AdmitSpillBytes = "spill_bytes"
)

// AdmissionError is the typed 429 a submission gets when the daemon is at
// capacity: which budget was hit, where it stands, and how long the
// client should wait before retrying.
type AdmissionError struct {
	Reason     string
	Limit      int64
	Used       int64
	RetryAfter time.Duration
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("served: admission rejected: %s at %d of %d", e.Reason, e.Used, e.Limit)
}

// admitter is the daemon-wide resource ledger behind admission control.
// The limits are fixed at construction; the ledger fields are atomics, so
// the admission check is lock-free — reservations and releases serialize
// under Server.mu, but the hot read path never takes it.
type admitter struct {
	maxRuns  int64
	maxUEs   int64
	maxSpill int64

	runs atomic.Int64 // active (admitted, not yet terminal) runs
	ues  atomic.Int64 // summed UE population across active runs
	// spill is the daemon-wide live spill-disk footprint: every run's
	// scenario budget shares this gauge, so generation-phase disk usage is
	// visible to admission the moment it is charged.
	spill atomic.Int64
}

// check is the lock-free admission test for a submission costing ues UE
// slots. Atomic loads only — this is the POST /runs fast path and the
// BenchmarkAdmissionCheck target.
func (a *admitter) check(ues int64) *AdmissionError {
	if a.maxRuns > 0 && a.runs.Load() >= a.maxRuns {
		return &AdmissionError{Reason: AdmitActiveRuns, Limit: a.maxRuns,
			Used: a.runs.Load(), RetryAfter: time.Second}
	}
	if a.maxUEs > 0 && a.ues.Load()+ues > a.maxUEs {
		return &AdmissionError{Reason: AdmitTotalUEs, Limit: a.maxUEs,
			Used: a.ues.Load(), RetryAfter: time.Second}
	}
	if a.maxSpill > 0 && a.spill.Load() >= a.maxSpill {
		return &AdmissionError{Reason: AdmitSpillBytes, Limit: a.maxSpill,
			Used: a.spill.Load(), RetryAfter: 2 * time.Second}
	}
	return nil
}

// reserve charges a run's admission cost and returns the release that gives
// it back, for the run to call once, as it turns terminal. Caller holds
// Server.mu (or is a recovery path that deliberately reserves past the
// limits).
func (a *admitter) reserve(ues int64) (release func()) {
	a.runs.Add(1)
	a.ues.Add(ues)
	return func() {
		a.runs.Add(-1)
		a.ues.Add(-ues)
	}
}

// CheckAdmission reports whether a run costing ues UE slots would be
// admitted right now. Lock-free: atomic loads against the admission
// ledger, nothing else. The returned error, when non-nil, is an
// *AdmissionError. Admission is advisory at this layer — the authoritative
// check-and-reserve happens under the server's registration lock — but
// the answer is exact whenever the ledger is quiescent.
func (s *Server) CheckAdmission(ues int) error {
	if err := s.admission.check(int64(ues)); err != nil {
		return err
	}
	return nil
}

// admissionUEs is a submission's admission cost: the UE override if set,
// else the spec's population, else the engine default.
func admissionUEs(ues int, spec *scenario.Spec) int64 {
	if ues > 0 {
		return int64(ues)
	}
	if spec != nil && spec.Population > 0 {
		return int64(spec.Population)
	}
	return int64(scenario.DefaultPopulation)
}
