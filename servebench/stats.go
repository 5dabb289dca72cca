package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank p-quantile of sorted values.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// beyond is how many of n samples lie past the nearest-rank p-quantile; a
// percentile with fewer than ten samples beyond it is flagged in the report.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p*float64(n)))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// msValues converts durations to sorted milliseconds.
func msValues(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// ratio is num/den, or 0 when den is 0 (the report prints the base, so a
// zero base is visible rather than hidden behind the 0).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
