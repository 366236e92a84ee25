package scenario

import "math"

// sortKey is one event as the chunk sort sees it: the float bits of its
// time and its index in the chunk.
type sortKey struct {
	bits uint64
	idx  uint32
}

// chunkSorter puts a chunk's events in the merge's (Time, UE, Seq) order
// with a stable LSD radix sort on the time alone. It sorts 16-byte keys and
// leaves the 40-byte events where they are (the spill reads them through the
// returned order), and keeps its two key buffers across the chunks of one
// worker.
type chunkSorter struct{ a, b []sortKey }

// order returns the permutation that sorts evs: evs[order[i].idx] is the
// i-th event in (Time, UE, Seq) order. The slice is valid until the next
// call.
//
// It rests on the contract spillChunks and applyOps keep: evs is assembled
// in ascending (UE, Seq) order, and every time is in [0, horizon) — never
// negative, never NaN. Under the first a stable sort by time breaks every
// tie by (UE, Seq); under the second the IEEE-754 bits, read as an unsigned
// integer, order exactly as the floats do once -0 is folded into +0.
func (s *chunkSorter) order(evs []Event) []sortKey {
	n := len(evs)
	if cap(s.a) < n {
		s.a, s.b = make([]sortKey, n), make([]sortKey, n)
	}
	src, dst := s.a[:n], s.b[:n]
	var hist [8][256]uint32
	for i := range evs {
		k := math.Float64bits(evs[i].Time + 0) // -0 + 0 = +0
		src[i] = sortKey{bits: k, idx: uint32(i)}
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	if n < 2 {
		return src
	}
	for p := range hist {
		h, shift := &hist[p], uint(p)*8
		if h[byte(src[0].bits>>shift)] == uint32(n) {
			continue // every key has the same byte here: the pass would move nothing
		}
		var sum uint32
		for b, c := range h {
			h[b] = sum
			sum += c
		}
		for _, k := range src {
			b := byte(k.bits >> shift)
			dst[h[b]] = k
			h[b]++
		}
		src, dst = dst, src
	}
	return src
}
