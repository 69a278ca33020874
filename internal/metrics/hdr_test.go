package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// Index/upper must agree: every bucket's upper bound maps back to the
// same bucket, and bounds are strictly increasing.
func TestHDRBucketLayout(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < hdrBuckets; i++ {
		u := hdrUpper(i)
		if u <= prev {
			t.Fatalf("bucket %d upper %d not above previous %d", i, u, prev)
		}
		if u < math.MaxInt64 && hdrIndex(u) != i {
			t.Fatalf("hdrIndex(hdrUpper(%d)=%d) = %d", i, u, hdrIndex(u))
		}
		prev = u
	}
	// Boundary walk: index must be monotone non-decreasing around every
	// power of two.
	for exp := uint(0); exp < 62; exp++ {
		v := int64(1) << exp
		for _, d := range []int64{-1, 0, 1} {
			if v+d < 0 {
				continue
			}
			lo, hi := hdrIndex(v+d), hdrIndex(v+d+1)
			if hi < lo {
				t.Fatalf("index not monotone at %d: %d then %d", v+d, lo, hi)
			}
		}
	}
	if hdrIndex(math.MaxInt64) >= hdrBuckets {
		t.Fatal("max value overflows bucket array")
	}
}

// Quantiles must track a sorted-slice oracle within the documented
// relative error across magnitudes and bucket boundaries.
func TestHDRQuantileOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := [][]int64{
		{0},          // single zero
		{5},          // single linear-region value
		{1 << 20},    // single log-region value
		{31, 32, 33}, // linear/log boundary straddle
	}
	// Mixed-magnitude random sets: uniform within octaves 0..40.
	for trial := 0; trial < 4; trial++ {
		vals := make([]int64, 5000)
		for i := range vals {
			octave := uint(rng.Intn(40))
			vals[i] = rng.Int63n(int64(1)<<octave + 1)
		}
		cases = append(cases, vals)
	}
	for ci, vals := range cases {
		h := NewHDR()
		var sum int64
		for _, v := range vals {
			h.Observe(v)
			sum += v
		}
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		if h.Count() != uint64(len(vals)) || h.Sum() != sum {
			t.Fatalf("case %d: count/sum = %d/%d, want %d/%d",
				ci, h.Count(), h.Sum(), len(vals), sum)
		}
		if h.Max() != sorted[len(sorted)-1] {
			t.Fatalf("case %d: max = %d, want %d", ci, h.Max(), sorted[len(sorted)-1])
		}
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
			rank := int(math.Ceil(q*float64(len(sorted)))) - 1
			if rank < 0 {
				rank = 0
			}
			oracle := sorted[rank]
			got := h.Quantile(q)
			// The estimate is the bucket's upper bound (clamped to max):
			// never below the oracle's bucket lower bound, never more
			// than one bucket width above the oracle.
			lo := oracle - oracle/hdrHalfCount - 1
			hi := oracle + oracle/hdrHalfCount + 1
			if got < lo || got > hi {
				t.Fatalf("case %d q=%v: got %d, oracle %d (allowed [%d,%d])",
					ci, q, got, oracle, lo, hi)
			}
		}
	}
}

func TestHDRQuantileClampsToMax(t *testing.T) {
	h := NewHDR()
	h.Observe(1000) // bucket upper bound is above 1000
	if got := h.Quantile(1); got != 1000 {
		t.Fatalf("Quantile(1) = %d, want exact max 1000", got)
	}
	if h.Quantile(0.5) != 1000 {
		t.Fatalf("Quantile(0.5) = %d, want 1000", h.Quantile(0.5))
	}
}

func TestHDREmptyAndNil(t *testing.T) {
	var nilH *HDR
	nilH.Observe(5) // must not panic
	nilH.Record(time.Second)
	if nilH.Count() != 0 || nilH.Quantile(0.5) != 0 || nilH.Mean() != 0 {
		t.Fatal("nil HDR not inert")
	}
	h := NewHDR()
	if h.Quantile(0.99) != 0 || h.Max() != 0 || h.Sum() != 0 {
		t.Fatal("empty HDR reports observations")
	}
	h.Observe(-5) // clamps to 0
	if h.Count() != 1 || h.Max() != 0 {
		t.Fatalf("negative clamp: count=%d max=%d", h.Count(), h.Max())
	}
}

func TestHDRConcurrentRecord(t *testing.T) {
	h := NewHDR()
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Int63n(1 << 30))
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Fatalf("count = %d, want %d", h.Count(), goroutines*per)
	}
	var cum uint64
	for _, b := range h.Snapshot() {
		cum = b.Cum
	}
	if cum != goroutines*per {
		t.Fatalf("bucket cumulative total = %d, want %d", cum, goroutines*per)
	}
}

func TestHDRRecordAllocFree(t *testing.T) {
	h := NewHDR()
	if n := testing.AllocsPerRun(1000, func() { h.Observe(12345) }); n != 0 {
		t.Fatalf("Observe allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Record(42 * time.Microsecond) }); n != 0 {
		t.Fatalf("Record allocates %v per call", n)
	}
}

func BenchmarkHDRRecord(b *testing.B) {
	h := NewHDR()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

// Registry exposition: HDR series emit Prometheus classic-histogram text
// with cumulative le buckets in seconds, raw series unscaled.
func TestRegistryHDRExposition(t *testing.T) {
	r := NewRegistry()
	lat := r.HDR("rt_latency", "round trip latency")
	lat.Record(1 * time.Microsecond)
	lat.Record(2 * time.Microsecond)
	lat.Record(1 * time.Millisecond)
	depth := r.HDRCounts("spec_depth", "open speculations")
	depth.Observe(3)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE rt_latency histogram",
		"rt_latency_bucket{le=\"+Inf\"} 3",
		"rt_latency_count 3",
		"# TYPE spec_depth histogram",
		"spec_depth_bucket{le=\"3\"} 1",
		"spec_depth_sum 3",
		"spec_depth_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	// Bucket lines must be cumulative and non-decreasing.
	var last float64 = -1
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "rt_latency_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < last {
			t.Fatalf("bucket counts not cumulative: %q after %v", line, last)
		}
		last = v
	}
	if v, ok := value(r, "rt_latency"); !ok || v != 3 {
		t.Fatalf("Value(rt_latency) = %v/%v, want 3", v, ok)
	}
	// Re-registering resolves the same handle.
	if r.HDR("rt_latency", "") != lat {
		t.Fatal("re-registration returned a different handle")
	}
}
