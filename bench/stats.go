package main

import (
	"math"
	"slices"
)

// Latency samples are kept raw and sorted once at the end: the engine's
// log-linear HDR histogram quantises neighbouring buckets (15.36 µs,
// 15.87 µs, …), which is coarser than the differences this benchmark is
// meant to resolve.

// quantile returns the q-quantile (nearest rank) of an ascending sample,
// or 0 for an empty one.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailLadder lists the percentiles a tail figure may be reported at.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// tailQuantile picks the percentile to report as the tail of n samples:
// the highest rung of the ladder, up to want, that still has at least ten
// samples beyond it. A metric named p99 on a sample too small to support
// it reports the highest percentile the sample does support.
func tailQuantile(n int, want float64) float64 {
	best := tailLadder[0]
	for _, q := range tailLadder {
		// The slack absorbs 1-q not being exact in binary (100 × 0.1 must
		// count as ten).
		if q <= want && float64(n)*(1-q) >= 10-1e-9 {
			best = q
		}
	}
	return best
}

// summary is a sorted latency sample with its median and tail.
type summary struct {
	n     int
	p50   int64
	tail  int64
	tailQ float64 // the percentile tail was read at
}

func summarize(samples []int64, wantTail float64) summary {
	slices.Sort(samples)
	q := tailQuantile(len(samples), wantTail)
	return summary{n: len(samples), p50: quantile(samples, 0.5), tail: quantile(samples, q), tailQ: q}
}

// medianFloat returns the median of v (mean of the middle pair for even
// lengths), or 0 for an empty slice.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
