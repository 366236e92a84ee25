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
		Step: func(k int, order []int, _ *tensor.Arena) error {
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
		OnEpoch:    func(int) { ended++ },
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
	res, err := Loop{Epochs: 3, Rng: newRNG(), Examples: 1, Steps: 2, Step: func(k int, _ []int, _ *tensor.Arena) error {
		if k == 1 {
			return boom
		}
		return nil
	}}.Run()
	if !errors.Is(err, boom) || res.Steps != 1 {
		t.Fatalf("err %v after %d steps, want boom after 1", err, res.Steps)
	}
}

// TestLoopStepKeepsHeapTensors: only what a step builds in its arena dies
// with the step. A tensor the step computes from heap-only inputs and keeps
// still holds its value after later steps have run; one derived from an
// arena input is recycled by them.
func TestLoopStepKeepsHeapTensors(t *testing.T) {
	var heap, arena *tensor.Tensor
	_, err := Loop{Epochs: 1, Rng: newRNG(), Examples: 1, Steps: 3, Step: func(k int, _ []int, a *tensor.Arena) error {
		v := tensor.Scalar(float64(k + 1))
		h := tensor.Add(v, tensor.Scalar(0))
		x := a.New(1, 1)
		x.Data[0] = v.Data[0]
		y := tensor.Add(x, tensor.Scalar(0))
		if k == 0 {
			heap, arena = h, y
		}
		return nil
	}}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if heap.Data[0] != 1 {
		t.Fatalf("a heap tensor kept from step 0 reads %v after later steps, want 1", heap.Data[0])
	}
	if arena.Data[0] == 1 {
		t.Fatal("an arena tensor kept from step 0 was not recycled by later steps")
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
