package main

import (
	"math"
	"sort"
)

// summary is one metric's dispersion record: every metric the benchmark
// reports carries its sample count, median and quartiles.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// summarize computes the median and quartiles with the exclusive method of
// Python's statistics.quantiles(xs, n=4), so the record reads like the
// spread the benchmark's acceptance check computes over runs.
func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = quantile(sorted, 0.5)
	s.Q1 = quantile(sorted, 0.25)
	s.Q3 = quantile(sorted, 0.75)
	return s
}

// quantile returns the q-quantile of sorted data by the exclusive method:
// position q·(n+1), with the bracketing index clamped to 1..n-1 (so, like
// Python's, it extrapolates linearly at the ends of a small sample).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n+1)
	j := int(math.Floor(pos))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the q-quantile (nearest rank) of xs, and false when
// fewer than minBeyond samples lie beyond it: a percentile resting on a
// handful of samples is not reported at all.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if n-1-rank < minBeyond {
		return 0, false
	}
	return sorted[rank], true
}

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
