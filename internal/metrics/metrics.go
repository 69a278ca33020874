// Package metrics provides the measurement primitives used by the
// experiment harness: lock-free log-bucketed latency histograms,
// throughput counters, and time series for latency-evolution plots.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the number of logarithmic buckets: bucket i covers
// latencies in [2^i, 2^(i+1)) nanoseconds, up to ~73 minutes at i=52.
const histBuckets = 53

// Histogram is a concurrent latency histogram with power-of-two buckets.
// The zero value is ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	maxNS   atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram { return &Histogram{} }

func bucketOf(ns uint64) int {
	b := 0
	for v := ns; v > 1 && b < histBuckets-1; v >>= 1 {
		b++
	}
	return b
}

// Record adds one latency observation.
func (h *Histogram) Record(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	h.buckets[bucketOf(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the average latency (0 when empty).
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.maxNS.Load())
}

// Percentile returns an upper bound of the p-quantile (p in [0,1]),
// accurate to one power-of-two bucket. The bound never exceeds the true
// recorded maximum: when the rank lands in the top occupied bucket the
// observed max is returned instead of the bucket's upper bound, so p99
// and p100 are exact for unimodal tails.
func (h *Histogram) Percentile(p float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(math.Ceil(p * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			bound := uint64(1) << uint(i+1) // bucket upper bound
			// The global max lives in the highest occupied bucket; if
			// this bucket's bound exceeds it, the rank landed there and
			// the max is the tight answer.
			if max := h.maxNS.Load(); max < bound {
				return time.Duration(max)
			}
			return time.Duration(bound)
		}
	}
	return time.Duration(h.maxNS.Load())
}

// String summarizes the histogram.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Percentile(0.50), h.Percentile(0.99), h.Max())
}

// Counter is a concurrent event counter.
type Counter struct {
	n atomic.Uint64
}

// Add increments by delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Inc increments by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Throughput measures completed events per second over the interval
// between Start and now.
type Throughput struct {
	start time.Time
	n     atomic.Uint64
}

// NewThroughput starts measuring now.
func NewThroughput() *Throughput {
	return &Throughput{start: time.Now()}
}

// Inc records one completed event.
func (t *Throughput) Inc() { t.n.Add(1) }

// PerSecond returns the average rate since Start.
func (t *Throughput) PerSecond() float64 {
	elapsed := time.Since(t.start).Seconds()
	if elapsed <= 0 {
		return 0
	}
	return float64(t.n.Load()) / elapsed
}

// Sample is one (elapsed time, value) pair in a time series.
type Sample struct {
	At    time.Duration
	Value float64
}

// TimeSeries is a concurrent append-only series of samples, used by the
// latency-evolution experiments (paper Fig. 4 and 5).
type TimeSeries struct {
	start time.Time

	mu      sync.Mutex
	samples []Sample
}

// NewTimeSeries anchors the series at the current instant.
func NewTimeSeries() *TimeSeries {
	return &TimeSeries{start: time.Now()}
}

// Add appends a sample stamped with the elapsed time since creation.
func (ts *TimeSeries) Add(value float64) {
	at := time.Since(ts.start)
	ts.mu.Lock()
	ts.samples = append(ts.samples, Sample{At: at, Value: value})
	ts.mu.Unlock()
}

// Samples returns a copy of the series in insertion order.
func (ts *TimeSeries) Samples() []Sample {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]Sample, len(ts.samples))
	copy(out, ts.samples)
	return out
}

// Buckets aggregates the series into fixed-width time buckets, returning
// the mean value per bucket (missing buckets yield NaN). Used to print the
// paper's per-second series.
func (ts *TimeSeries) Buckets(width time.Duration) []float64 {
	samples := ts.Samples()
	if len(samples) == 0 {
		return nil
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].At < samples[j].At })
	last := samples[len(samples)-1].At
	n := int(last/width) + 1
	sums := make([]float64, n)
	counts := make([]int, n)
	for _, s := range samples {
		b := int(s.At / width)
		sums[b] += s.Value
		counts[b]++
	}
	out := make([]float64, n)
	for i := range out {
		if counts[i] == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = sums[i] / float64(counts[i])
		}
	}
	return out
}
