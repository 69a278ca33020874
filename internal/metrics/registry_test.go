package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryHandlesAreShared(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "ignored second help")
	if a != b {
		t.Fatal("same name resolved to different counter handles")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("shared counter = %d, want 1", b.Value())
	}
	l1 := r.CounterWith("y_total", "", Labels{"cause": "conflict"})
	l2 := r.CounterWith("y_total", "", Labels{"cause": "revoke"})
	if l1 == l2 {
		t.Fatal("distinct label sets resolved to the same handle")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "")
}

// value returns the value of the unlabeled series name (the observation
// count for histograms), and whether r has it.
func value(r *Registry, name string) (float64, bool) {
	for _, p := range r.Snapshot() {
		if p.Name == name && p.Labels == "" {
			return p.Value, true
		}
	}
	return 0, false
}

func TestRegistryFuncRebinds(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("lag", "", nil, func() float64 { return 1 })
	r.GaugeFunc("lag", "", nil, func() float64 { return 2 })
	v, ok := value(r, "lag")
	if !ok || v != 2 {
		t.Fatalf("rebound gauge func = %v (ok=%v), want 2", v, ok)
	}
}

// TestRegistryConcurrent hammers registration, updates and scrapes from
// many goroutines; run under -race it is the registry's thread-safety
// proof.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var writers sync.WaitGroup
	for i := 0; i < 8; i++ {
		writers.Add(1)
		go func(i int) {
			defer writers.Done()
			for j := 0; j < 500; j++ {
				r.Counter("shared_total", "").Inc()
				r.CounterWith("labeled_total", "", Labels{"worker": string(rune('a' + i))}).Inc()
				r.Gauge("depth", "").Set(int64(j))
				r.HDR("lat", "").Record(time.Duration(j+1) * time.Microsecond)
				r.GaugeFunc("fn", "", nil, func() float64 { return float64(j) })
			}
		}(i)
	}
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				r.Snapshot()
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-scraperDone

	if v, _ := value(r, "shared_total"); v != 8*500 {
		t.Fatalf("shared_total = %v, want %d", v, 8*500)
	}
	if v, _ := value(r, "lat"); v != 8*500 {
		t.Fatalf("lat count = %v, want %d", v, 8*500)
	}
}

// TestWritePrometheusGolden pins the exposition format byte-for-byte.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.CounterWith("demo_aborts_total", "Aborts by cause.", Labels{"cause": "conflict"}).Add(2)
	r.CounterWith("demo_aborts_total", "Aborts by cause.", Labels{"cause": "revoke"}).Add(1)
	r.Gauge("demo_depth", "Open tasks.").Set(7)
	r.Counter("demo_events_total", "Events seen.").Add(3)
	r.GaugeFunc("demo_lag", "Unstable records.", nil, func() float64 { return 2.5 })

	want := strings.Join([]string{
		`# HELP demo_aborts_total Aborts by cause.`,
		`# TYPE demo_aborts_total counter`,
		`demo_aborts_total{cause="conflict"} 2`,
		`demo_aborts_total{cause="revoke"} 1`,
		`# HELP demo_depth Open tasks.`,
		`# TYPE demo_depth gauge`,
		`demo_depth 7`,
		`# HELP demo_events_total Events seen.`,
		`# TYPE demo_events_total counter`,
		`demo_events_total 3`,
		`# HELP demo_lag Unstable records.`,
		`# TYPE demo_lag gauge`,
		`demo_lag 2.5`,
	}, "\n") + "\n"

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}
