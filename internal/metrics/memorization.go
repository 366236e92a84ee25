package metrics

import (
	"fmt"
	"strings"

	"cptgpt/internal/trace"
)

// MemorizationResult reports the n-gram repetition audit of §5.6.
type MemorizationResult struct {
	// N is the subsequence length, Epsilon the interarrival tolerance.
	N       int
	Epsilon float64
	// Generated is the number of n-grams extracted from the generated set;
	// Repeated is how many of them match at least one training n-gram.
	Generated int
	Repeated  int
}

// Rate returns the repeated fraction in [0, 1].
func (r MemorizationResult) Rate() float64 {
	if r.Generated == 0 {
		return 0
	}
	return float64(r.Repeated) / float64(r.Generated)
}

// ngram is one continuous subsequence: an event-type signature plus the
// aligned interarrival times.
type ngram struct {
	ia []float64
}

// Memorization extracts all n-grams (continuous subsequences of length n)
// from both datasets and reports the fraction of generated n-grams that
// repeat a training n-gram. Two n-grams repeat when their event-type
// sequences are identical and every pair of corresponding interarrival
// times falls within relative tolerance ε, i.e. (1−ε) < t_gen/t_real <
// (1+ε). Pairs where t_real is zero match only when t_gen is (near) zero;
// the paper leaves this case unspecified and our convention treats
// sub-millisecond values as equal.
func Memorization(generated, training *trace.Dataset, n int, eps float64) (MemorizationResult, error) {
	if n < 1 {
		return MemorizationResult{}, fmt.Errorf("metrics: n must be ≥ 1, got %d", n)
	}
	if eps < 0 {
		return MemorizationResult{}, fmt.Errorf("metrics: epsilon must be ≥ 0, got %v", eps)
	}
	res := MemorizationResult{N: n, Epsilon: eps}

	// Index training n-grams by event-type signature.
	index := make(map[string][]ngram)
	for i := range training.Streams {
		s := &training.Streams[i]
		ia := s.Interarrivals()
		for start := 0; start+n <= len(s.Events); start++ {
			sig := signature(s, start, n)
			index[sig] = append(index[sig], ngram{ia: ia[start : start+n]})
		}
	}

	for i := range generated.Streams {
		s := &generated.Streams[i]
		ia := s.Interarrivals()
		for start := 0; start+n <= len(s.Events); start++ {
			res.Generated++
			sig := signature(s, start, n)
			for _, tr := range index[sig] {
				if iaMatch(ia[start:start+n], tr.ia, eps) {
					res.Repeated++
					break
				}
			}
		}
	}
	return res, nil
}

// signature builds the event-type key of the n-gram starting at start.
func signature(s *trace.Stream, start, n int) string {
	var b strings.Builder
	for i := start; i < start+n; i++ {
		if i > start {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", int(s.Events[i].Type))
	}
	return b.String()
}

// iaMatch reports whether every interarrival pair is within relative
// tolerance eps.
func iaMatch(gen, real []float64, eps float64) bool {
	const zeroIsh = 1e-3 // sub-millisecond interarrivals compare as equal
	for i := range gen {
		g, r := gen[i], real[i]
		if r <= zeroIsh {
			if g > zeroIsh {
				return false
			}
			continue
		}
		ratio := g / r
		if ratio <= 1-eps || ratio >= 1+eps {
			return false
		}
	}
	return true
}
