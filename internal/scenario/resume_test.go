package scenario

import (
	"strings"
	"testing"

	"cptgpt/internal/trace"
)

// TestResumeAfterBitIdenticalSuffix is the crash-recovery keystone: a run
// resumed after any checkpointed merge key must emit exactly the suffix
// the uninterrupted run emits after that key, bit for bit, and report the
// pruned prefix through Skipped.
func TestResumeAfterBitIdenticalSuffix(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{UEs: 300, Parallelism: 2, BatchSize: 64}
	full := drainAll(t, spec, opts)
	if len(full) < 100 {
		t.Fatalf("scenario too small for the test: %d events", len(full))
	}

	// Resume from several cut points, including mid-run chunk boundaries
	// and the extremes.
	for _, cut := range []int{0, 1, len(full) / 3, len(full) / 2, len(full) - 2, len(full) - 1} {
		key := full[cut]
		ropts := opts
		ropts.ResumeAfter = &key
		// A different worker layout must not change the resumed suffix.
		ropts.Parallelism = 3
		ropts.BatchSize = 50
		st, err := spec.Open(ropts)
		if err != nil {
			t.Fatal(err)
		}
		var got []Event
		for {
			e, ok := st.Next()
			if !ok {
				break
			}
			got = append(got, e)
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		want := full[cut+1:]
		if len(got) != len(want) {
			t.Fatalf("cut %d: resumed %d events, want %d", cut, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cut %d: event %d diverges: got %+v want %+v", cut, i, got[i], want[i])
			}
		}
		if st.Skipped() != int64(cut+1) {
			t.Errorf("cut %d: Skipped = %d, want %d", cut, st.Skipped(), cut+1)
		}
		st.Close()
	}
}

// TestResumeAfterKeyBeforeEverything yields the whole run (nothing ≤ key).
func TestResumeAfterKeyBeforeEverything(t *testing.T) {
	spec, err := Builtin("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOpts{UEs: 120, Parallelism: 2, BatchSize: 64}
	full := drainAll(t, spec, opts)
	opts.ResumeAfter = &Event{Time: -1}
	got := drainAll(t, spec, opts)
	if len(got) != len(full) {
		t.Fatalf("resume before start emitted %d events, want %d", len(got), len(full))
	}
}

// TestPacerResumeAt pins the resumed pacer schedule on a manual clock: with
// ResumeAt(t0) the schedule is anchored at the checkpointed trace offset,
// not the first event's own timestamp, and its wall origin is the first
// release. An event at the offset is released at once; one after it waits
// out the difference.
func TestPacerResumeAt(t *testing.T) {
	for _, tc := range []struct {
		resume float64
		evs    []Event
	}{
		{100.0, []Event{{Time: 100.0}, {Time: 100.05}, {Time: 100.1}}},
		{99.9, []Event{{Time: 100.0}, {Time: 100.05}}},
	} {
		p, m := manualPacer(&sliceSource{evs: tc.evs}, 1)
		p.ResumeAt(tc.resume)
		got, at, _ := drainManual(p, m, nil, nil)
		if len(got) != len(tc.evs) || p.t0 != tc.resume {
			t.Fatalf("ResumeAt(%v): released %d of %d events, t0 = %v", tc.resume, len(got), len(tc.evs), p.t0)
		}
		for i, e := range tc.evs {
			if want := dueAt(epoch, e.Time, tc.resume, 1); !at[i].Equal(want) {
				t.Errorf("ResumeAt(%v): event at trace %v released at %v, want %v", tc.resume, e.Time, at[i].Sub(epoch), want.Sub(epoch))
			}
		}
	}

	// Without ResumeAt the anchor is the first event's timestamp.
	src2 := &sliceSource{evs: []Event{{Time: 100.05}}}
	p2 := NewPacer(nil, src2, 1)
	p2.Next()
	if p2.t0 != 100.05 {
		t.Errorf("unresumed t0 = %v, want 100.05", p2.t0)
	}
}

// TestWorkerPanicContained pins satellite 1 at the scenario layer: a
// panicking ChunkFunc fails the run with the panic message and stack in
// the error instead of crashing the process.
func TestWorkerPanicContained(t *testing.T) {
	spec := &Spec{
		Name: "panicky", Generation: "5g", HorizonSec: 10, Population: 8,
		Sources: []SourceSpec{{ID: "boom", Kind: "custom", Share: 1}},
	}
	opts := RunOpts{
		Parallelism: 2, BatchSize: 4,
		Sources: map[string]ChunkFunc{
			"boom": func(lo, hi int) ([]trace.Stream, error) {
				panic("synthetic source exploded")
			},
		},
	}
	_, err := spec.Open(opts)
	if err == nil {
		t.Fatal("panicking source did not fail the run")
	}
	if want := "panic in generation worker"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
	if !strings.Contains(err.Error(), "synthetic source exploded") {
		t.Errorf("error %q lost the panic value", err)
	}
}
