package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 || h.Percentile(0.5) != 0 {
		t.Fatalf("empty histogram not all-zero: %s", h)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond} {
		h.Record(d)
	}
	if h.Count() != 3 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 2*time.Millisecond {
		t.Fatalf("Mean = %v", h.Mean())
	}
	if h.Max() != 3*time.Millisecond {
		t.Fatalf("Max = %v", h.Max())
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	h := NewHistogram()
	// 99 fast observations, 1 slow.
	for i := 0; i < 99; i++ {
		h.Record(100 * time.Microsecond)
	}
	h.Record(50 * time.Millisecond)
	p50 := h.Percentile(0.50)
	if p50 < 100*time.Microsecond || p50 > 300*time.Microsecond {
		t.Fatalf("p50 = %v, want ≈128µs bucket bound", p50)
	}
	p999 := h.Percentile(0.999)
	if p999 < 50*time.Millisecond {
		t.Fatalf("p999 = %v, want >= 50ms", p999)
	}
	// Out-of-range p values clamp.
	if h.Percentile(-1) == 0 || h.Percentile(2) == 0 {
		t.Fatal("clamped percentiles returned 0")
	}
}

func TestBucketOf(t *testing.T) {
	tests := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10},
	}
	for _, tt := range tests {
		if got := bucketOf(tt.ns); got != tt.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tt.ns, got, tt.want)
		}
	}
	// Enormous values must stay in range.
	if got := bucketOf(math.MaxUint64); got != histBuckets-1 {
		t.Errorf("bucketOf(max) = %d, want %d", got, histBuckets-1)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("Count = %d, want 8000", h.Count())
	}
	if h.Max() < 999*time.Microsecond {
		t.Fatalf("Max = %v", h.Max())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d", c.Value())
	}
}

func TestThroughput(t *testing.T) {
	tp := NewThroughput()
	for i := 0; i < 101; i++ {
		tp.Inc()
	}
	time.Sleep(10 * time.Millisecond)
	rate := tp.PerSecond()
	if rate <= 0 || rate > 101/0.005 {
		t.Fatalf("PerSecond = %v out of plausible range", rate)
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries()
	ts.Add(1)
	time.Sleep(2 * time.Millisecond)
	ts.Add(3)
	samples := ts.Samples()
	if len(samples) != 2 {
		t.Fatalf("Samples = %d", len(samples))
	}
	if samples[1].At <= samples[0].At {
		t.Fatal("sample times not increasing")
	}
	if samples[0].Value != 1 || samples[1].Value != 3 {
		t.Fatalf("values = %v", samples)
	}
}

func TestTimeSeriesBuckets(t *testing.T) {
	ts := NewTimeSeries()
	// Inject samples directly for determinism.
	ts.samples = []Sample{
		{At: 0, Value: 10},
		{At: 500 * time.Microsecond, Value: 20},
		{At: 2500 * time.Microsecond, Value: 40},
	}
	b := ts.Buckets(time.Millisecond)
	if len(b) != 3 {
		t.Fatalf("buckets = %v", b)
	}
	if b[0] != 15 {
		t.Fatalf("bucket 0 mean = %v, want 15", b[0])
	}
	if !math.IsNaN(b[1]) {
		t.Fatalf("bucket 1 = %v, want NaN", b[1])
	}
	if b[2] != 40 {
		t.Fatalf("bucket 2 = %v, want 40", b[2])
	}
	empty := NewTimeSeries()
	if empty.Buckets(time.Second) != nil {
		t.Fatal("empty Buckets != nil")
	}
}
