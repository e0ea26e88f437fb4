package main

import (
	"math"
	"sort"
)

// summary is a timing distribution reported the way the benchmark reports
// every timing: the median, the 75th percentile, and how many samples back
// each number (N in all, Beyond strictly above the p75 rank).
type summary struct {
	N      int
	P50    float64
	P75    float64
	Beyond int
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of samples and
// the number of samples ranked above it. It returns NaN for no samples.
func percentile(samples []float64, p float64) (v float64, beyond int) {
	if len(samples) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1], len(s) - rank
}

func median(samples []float64) float64 {
	v, _ := percentile(samples, 0.5)
	return v
}

func summarize(samples []float64) summary {
	p50, _ := percentile(samples, 0.5)
	p75, beyond := percentile(samples, 0.75)
	return summary{N: len(samples), P50: p50, P75: p75, Beyond: beyond}
}

// ratio is a/b, or 0 when b is 0 — a layer that did not run on a workload
// reports 0 for its per-instruction metrics.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
