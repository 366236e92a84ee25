package trace

import (
	"math/rand"
	"strconv"
	"testing"
)

// BenchmarkAppendTime measures the line encoder's timestamp formatter alone
// on 65 536 times uniform over an hour (16–17 significant digits): the
// kernel, and strconv.AppendFloat 'f' at shortest precision — the bytes it
// is held to — as the reference.
func BenchmarkAppendTime(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	times := make([]float64, 1<<16)
	for i := range times {
		times[i] = rng.Float64() * 3600
	}
	for _, bc := range []struct {
		name string
		fn   func([]byte, float64) []byte
	}{
		{"kernel", appendTime},
		{"strconv", func(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'f', -1, 64) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			buf := make([]byte, 0, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, t := range times {
					buf = bc.fn(buf[:0], t)
				}
			}
			if len(buf) == 0 {
				b.Fatal("empty time")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(times)), "ns/value")
		})
	}
}
