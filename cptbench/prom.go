package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one line of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads the samples of a text-format scrape, skipping comments
// and lines it cannot read.
func parseProm(text string) []promSample {
	var out []promSample
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		s := promSample{labels: map[string]string{}}
		rest := line
		if i := strings.IndexByte(line, '{'); i >= 0 {
			s.name = line[:i]
			var ok bool
			if rest, ok = parseLabels(line[i+1:], s.labels); !ok {
				continue
			}
		} else {
			i := strings.IndexByte(line, ' ')
			if i < 0 {
				continue
			}
			s.name, rest = line[:i], line[i:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		s.value = v
		out = append(out, s)
	}
	return out
}

// parseLabels reads `k="v",...}` into labels and returns what follows the
// closing brace.
func parseLabels(s string, labels map[string]string) (rest string, ok bool) {
	for {
		s = strings.TrimLeft(s, ", ")
		if strings.HasPrefix(s, "}") {
			return s[1:], true
		}
		eq := strings.Index(s, `="`)
		if eq < 0 {
			return "", false
		}
		key := s[:eq]
		s = s[eq+2:]
		var val strings.Builder
		for {
			if s == "" {
				return "", false
			}
			c := s[0]
			s = s[1:]
			if c == '"' {
				break
			}
			if c == '\\' && s != "" {
				switch s[0] {
				case 'n':
					c = '\n'
				default:
					c = s[0]
				}
				s = s[1:]
			}
			val.WriteByte(c)
		}
		labels[key] = val.String()
	}
}

// matches reports whether the sample carries every wanted label value.
func (s promSample) matches(want map[string]string) bool {
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// promValue sums the samples of one series name carrying the wanted labels.
func promValue(samples []promSample, name string, want map[string]string) float64 {
	var v float64
	for _, s := range samples {
		if s.name == name && s.matches(want) {
			v += s.value
		}
	}
	return v
}

// promBucket is one cumulative histogram bucket.
type promBucket struct {
	le  float64 // upper edge, +Inf for the last
	cum float64 // observations ≤ le
}

// promHistogram collects the cumulative buckets of the histogram `name`
// from the samples carrying the wanted labels, sorted by upper edge.
func promHistogram(samples []promSample, name string, want map[string]string) []promBucket {
	var out []promBucket
	for _, s := range samples {
		if s.name != name+"_bucket" || !s.matches(want) {
			continue
		}
		le, err := strconv.ParseFloat(s.labels["le"], 64)
		if err != nil {
			continue
		}
		out = append(out, promBucket{le, s.value})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out
}

// bucketQuantile interpolates the q-quantile from cumulative buckets the
// way Prometheus's histogram_quantile does: linear inside the bucket the
// rank falls in, the lower edge of the first bucket taken as 0, and the
// highest finite edge when the rank lands in the +Inf bucket.
func bucketQuantile(q float64, b []promBucket) float64 {
	if len(b) == 0 || b[len(b)-1].cum == 0 {
		return 0
	}
	rank := q * b[len(b)-1].cum
	i := sort.Search(len(b), func(i int) bool { return b[i].cum >= rank })
	if i == len(b) {
		i = len(b) - 1
	}
	if math.IsInf(b[i].le, 1) {
		if i == 0 {
			return 0
		}
		return b[i-1].le
	}
	lo, below := 0.0, 0.0
	if i > 0 {
		lo, below = b[i-1].le, b[i-1].cum
	}
	in := b[i].cum - below
	if in <= 0 {
		return b[i].le
	}
	return lo + (b[i].le-lo)*(rank-below)/in
}
