package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a percentile
// before it is reported: a tail figure resting on fewer points is noise.
const minTail = 10

// percentile returns the p-th percentile (0 < p < 100) of sorted by
// linear interpolation between closest ranks; 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// tailPercentile is percentile with the tail rule: ok is false when
// fewer than minTail samples fall beyond the p-th percentile.
func tailPercentile(sorted []float64, p float64) (v float64, ok bool) {
	beyond := int(math.Floor(float64(len(sorted)) * (100 - p) / 100))
	if beyond < minTail {
		return 0, false
	}
	return percentile(sorted, p), true
}

// median of values (copied before sorting).
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// sortedMillis converts durations to milliseconds, sorted.
func sortedMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(out)
	return out
}

// ratio returns num/den, or 0 when den is 0 (a layer that saw no work
// reads 0, not NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
