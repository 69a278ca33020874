package metrics

import (
	"math"
	"testing"
	"time"
)

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
