package metrics

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// HDR bucket layout: values below subCount land in one-value-wide linear
// buckets; above that, each power-of-two octave is split into
// subCount/2 equal sub-buckets, so the relative quantile error is
// bounded by 2/subCount (6.25% with subBits = 5) at any magnitude.
const (
	hdrSubBits   = 5
	hdrSubCount  = 1 << hdrSubBits // 32 linear buckets / octave
	hdrHalfCount = hdrSubCount / 2 // log-region sub-buckets / octave
	// 58 octaves above the linear region: the final bucket's upper bound
	// is (2·hdrHalfCount << 58) − 1 = MaxInt64 exactly, covering the full
	// non-negative int64 range without overflow.
	hdrMaxExp  = 63 - hdrSubBits
	hdrBuckets = hdrSubCount + hdrMaxExp*hdrHalfCount
)

// HDR is a lock-free log-bucketed (HdrHistogram-style) histogram of
// non-negative int64 values. Record and Observe are wait-free, allocation
// free and safe for concurrent use; readers (Quantile, Buckets, the
// Prometheus exposition) walk the bucket array without stopping writers.
// The zero value is ready to use. A nil *HDR is inert.
//
// It keeps enough resolution (≤ 6.25% relative error) to report
// meaningful tail quantiles, and its bucket array has a Prometheus
// classic-histogram text exposition (_bucket/_sum/_count) via
// Registry.HDR.
type HDR struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [hdrBuckets]atomic.Uint64
}

// NewHDR returns an empty histogram.
func NewHDR() *HDR { return &HDR{} }

// hdrIndex maps a non-negative value to its bucket index.
func hdrIndex(v int64) int {
	if v < hdrSubCount {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - hdrSubBits
	sub := int(uint64(v)>>uint(exp)) - hdrHalfCount
	i := hdrSubCount + (exp-1)*hdrHalfCount + sub
	if i >= hdrBuckets {
		return hdrBuckets - 1
	}
	return i
}

// hdrUpper returns the inclusive upper bound of bucket i.
func hdrUpper(i int) int64 {
	if i < hdrSubCount {
		return int64(i)
	}
	exp := (i-hdrSubCount)/hdrHalfCount + 1
	sub := (i - hdrSubCount) % hdrHalfCount
	u := (uint64(hdrHalfCount+sub+1) << uint(exp)) - 1
	if u > math.MaxInt64 {
		return math.MaxInt64
	}
	return int64(u)
}

// Observe adds one raw value. Negative values clamp to zero.
func (h *HDR) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[hdrIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Record adds one duration observation (in nanoseconds).
func (h *HDR) Record(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Count returns the number of observations.
func (h *HDR) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *HDR) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observed value (0 when empty).
func (h *HDR) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Mean returns the arithmetic mean of observed values (0 when empty).
func (h *HDR) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an upper bound for the q-quantile (q in (0,1]) of the
// observed values, clamped to the observed maximum so outliers do not get
// inflated to their bucket boundary. Returns 0 when empty.
func (h *HDR) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < hdrBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			u := hdrUpper(i)
			if m := h.max.Load(); u > m {
				u = m
			}
			return u
		}
	}
	return h.max.Load()
}

// QuantileDuration is Quantile for nanosecond-valued histograms.
func (h *HDR) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q))
}

// HDRBucket is one occupied bucket in a snapshot: the cumulative count of
// observations ≤ Upper.
type HDRBucket struct {
	Upper int64
	Cum   uint64
}

// Snapshot returns the occupied buckets in ascending order with
// cumulative counts, for exposition. Allocates; not a hot-path call.
func (h *HDR) Snapshot() []HDRBucket {
	if h == nil {
		return nil
	}
	var out []HDRBucket
	var cum uint64
	for i := 0; i < hdrBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, HDRBucket{Upper: hdrUpper(i), Cum: cum})
	}
	return out
}
