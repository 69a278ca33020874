package main

import "testing"

func TestTailQuantile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		q    float64
	}{
		{n: 5, want: 0.99, q: 0.5},        // nothing beyond the median: report the median
		{n: 20, want: 0.99, q: 0.5},       // exactly ten beyond p50, two beyond p90
		{n: 100, want: 0.99, q: 0.9},      // ten beyond p90, one beyond p99
		{n: 999, want: 0.99, q: 0.9},      // 9.99 beyond p99: not enough
		{n: 1000, want: 0.99, q: 0.99},    // exactly ten beyond p99
		{n: 1000000, want: 0.99, q: 0.99}, // a larger sample never reports beyond what was asked
		{n: 1000000, want: 0.9999, q: 0.9999},
		{n: 50000, want: 0.9999, q: 0.999}, // five beyond p99.99, fifty beyond p99.9
	}
	for _, c := range cases {
		if got := tailQuantile(c.n, c.want); got != c.q {
			t.Errorf("tailQuantile(%d, %g) = %g, want %g", c.n, c.want, got, c.q)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1) // 1..100
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(1..100, %g) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of an empty sample = %d, want 0", got)
	}
}

func TestSummarize(t *testing.T) {
	small := summarize([]int64{9, 1, 5, 3, 7}, 0.99)
	if small.n != 5 || small.p50 != 5 || small.tailQ != 0.5 || small.tail != 5 {
		t.Errorf("small sample: %+v", small)
	}
	big := make([]int64, 2000)
	for i := range big {
		big[i] = int64(2000 - i) // descending: summarize must sort
	}
	s := summarize(big, 0.99)
	if s.p50 != 1000 || s.tailQ != 0.99 || s.tail != 1980 {
		t.Errorf("large sample: %+v", s)
	}
}

func TestMedianFloat(t *testing.T) {
	if got := medianFloat([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := medianFloat(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}
