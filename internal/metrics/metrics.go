// Package metrics provides the measurement primitives used by the
// experiment harness: lock-free log-bucketed latency histograms (HDR),
// throughput counters, and time series for latency-evolution plots.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

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
