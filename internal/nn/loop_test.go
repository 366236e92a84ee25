package nn

import (
	"errors"
	"testing"
	"time"

	"cptgpt/internal/tensor"
)

// TestLoopKeepsFirstBestCheckpoint: the loop runs Steps steps per epoch
// over a permutation of the examples, probes every ProbeEvery epochs, and
// writes back the parameters of the first best-scoring probe.
func TestLoopKeepsFirstBestCheckpoint(t *testing.T) {
	p := tensor.New(1, 1)
	scores := map[int]float64{2: 3, 4: 1, 6: 1} // by epoch, 1-based
	var epoch, begun, ended int
	res, err := Loop{
		Epochs:     6,
		Rng:        newRNG(),
		Examples:   5,
		Steps:      3,
		BeginEpoch: func(e int) { epoch, begun = e+1, begun+1 },
		Step: func(k int, order []int) error {
			seen := make([]bool, len(order))
			for _, i := range order {
				seen[i] = true
			}
			for i, ok := range seen {
				if !ok {
					t.Fatalf("order %v is not a permutation: %d missing", order, i)
				}
			}
			p.Data[0] = float64(10*epoch + k)
			return nil
		},
		OnEpoch: func(int) {
			if tensor.ActiveArena() != nil {
				t.Error("OnEpoch ran with the arena installed")
			}
			ended++
		},
		Probe:      func() float64 { return scores[epoch] },
		ProbeEvery: 2,
		Keep:       []*tensor.Tensor{p},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 18 || res.Epochs != 6 || begun != 6 || ended != 6 {
		t.Fatalf("steps %d, epochs %d, begun %d, ended %d", res.Steps, res.Epochs, begun, ended)
	}
	if res.BestEpoch != 4 || res.BestScore != 1 || p.Data[0] != 42 {
		t.Fatalf("kept epoch %d score %v value %v, want epoch 4 score 1 value 42", res.BestEpoch, res.BestScore, p.Data[0])
	}
}

func TestLoopStepError(t *testing.T) {
	boom := errors.New("boom")
	res, err := Loop{Epochs: 3, Rng: newRNG(), Examples: 1, Steps: 2, Step: func(k int, _ []int) error {
		if k == 1 {
			return boom
		}
		return nil
	}}.Run()
	if !errors.Is(err, boom) || res.Steps != 1 {
		t.Fatalf("err %v after %d steps, want boom after 1", err, res.Steps)
	}
}

func TestTimeToBest(t *testing.T) {
	r := LoopResult{Epochs: 4, BestEpoch: 1, Duration: 8 * time.Second}
	if got := r.TimeToBest(); got != 2*time.Second {
		t.Fatalf("TimeToBest %v, want 2s", got)
	}
	r.BestEpoch = 0
	if got := r.TimeToBest(); got != 8*time.Second {
		t.Fatalf("without a kept checkpoint TimeToBest %v, want the whole 8s", got)
	}
}
