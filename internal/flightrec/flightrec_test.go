package flightrec

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"streammine/internal/metrics"
	"streammine/internal/metricstest"
)

func TestRecordAndSnapshot(t *testing.T) {
	r := New(64)
	r.Record(KindLifecycle, "partition 0 built")
	r.Record(KindChaos, "net_delay=5ms")
	r.Record3(KindSpan, "classify", "commit", "src:42")
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("Snapshot() = %d entries, want 3", len(got))
	}
	if got[0].Kind != "lifecycle" || got[0].Detail != "partition 0 built" {
		t.Errorf("entry 0 = %+v", got[0])
	}
	if got[2].Kind != "span" || got[2].Detail != "classify commit src:42" {
		t.Errorf("entry 2 = %+v", got[2])
	}
	for i := 1; i < len(got); i++ {
		if got[i].TSNs < got[i-1].TSNs {
			t.Errorf("entries out of order: %d before %d", got[i].TSNs, got[i-1].TSNs)
		}
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := New(64) // rounded to 64 slots
	for i := 0; i < 200; i++ {
		r.Record(KindEpoch, fmt.Sprintf("epoch %d", i))
	}
	got := r.Snapshot()
	if len(got) != 64 {
		t.Fatalf("Snapshot() after wrap = %d entries, want 64", len(got))
	}
	if got[0].Detail != "epoch 136" || got[63].Detail != "epoch 199" {
		t.Errorf("wrap window = [%q .. %q], want [epoch 136 .. epoch 199]",
			got[0].Detail, got[63].Detail)
	}
	if r.Records() != 200 {
		t.Errorf("Records() = %d, want 200", r.Records())
	}
}

func TestRecordAllocFree(t *testing.T) {
	r := New(1024)
	if n := testing.AllocsPerRun(1000, func() { r.Record(KindLifecycle, "partition 3 running") }); n != 0 {
		t.Errorf("Record allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { r.Record3(KindSpan, "classify", "commit", "src:1") }); n != 0 {
		t.Errorf("Record3 allocates %.1f/op, want 0", n)
	}
}

func TestDetailTruncation(t *testing.T) {
	r := New(64)
	long := strings.Repeat("x", 4*detailLen)
	r.Record(KindLifecycle, long)
	got := r.Snapshot()
	if len(got) != 1 || len(got[0].Detail) != detailLen {
		t.Fatalf("truncated detail len = %d, want %d", len(got[0].Detail), detailLen)
	}
}

func TestConcurrentRecordSnapshot(t *testing.T) {
	r := New(128)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Record(KindSpan, "node phase event")
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		for _, e := range r.Snapshot() {
			if e.Kind != "span" || e.Detail != "node phase event" {
				t.Errorf("torn entry leaked: %+v", e)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestDumpRoundTrip(t *testing.T) {
	r := New(64)
	r.Record(KindLifecycle, "partition 0 built")
	r.Record(KindChaos, "off")
	dir := t.TempDir()
	path, err := r.SaveTo(dir, "w1")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "w1.json"); path != want {
		t.Errorf("SaveTo path = %q, want %q", path, want)
	}
	d, err := ReadDump(path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Proc != "w1" || d.Records != 2 || len(d.Entries) != 2 {
		t.Errorf("dump = proc %q records %d entries %d, want w1/2/2", d.Proc, d.Records, len(d.Entries))
	}
}

func TestSnapshotterWritesPeriodically(t *testing.T) {
	r := New(64)
	r.Record(KindLifecycle, "start")
	dir := t.TempDir()
	s := r.StartSnapshots(dir, "w1", 10*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if d, err := ReadDump(filepath.Join(dir, "w1.json")); err == nil && len(d.Entries) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshot never appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.Record(KindLifecycle, "stop")
	s.Stop() // final snapshot includes the last record
	d, err := ReadDump(filepath.Join(dir, "w1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Entries) != 2 {
		t.Errorf("final snapshot has %d entries, want 2", len(d.Entries))
	}
}

func TestSpanMirrorSamples(t *testing.T) {
	r := Enable(1024)
	base := r.Records()
	for i := 0; i < 2*spanEvery; i++ {
		SpanMirror(metrics.Span{Node: "classify", Phase: "commit", Event: "src:1"})
	}
	if got := r.Records() - base; got != 2 {
		t.Errorf("mirror recorded %d of %d spans, want 2", got, 2*spanEvery)
	}
}

func TestMetricsRegisteredAndDocumented(t *testing.T) {
	r := New(64)
	reg := metrics.NewRegistry()
	RegisterMetrics(r, reg)
	r.Record(KindLifecycle, "start")
	if v, ok := reg.Value("flightrec_records_total", nil); !ok || v != 1 {
		t.Errorf("flightrec_records_total = %v ok=%v, want 1", v, ok)
	}

	metricstest.Documented(t, reg, "flightrec_", "OBSERVABILITY.md", 3)
}
