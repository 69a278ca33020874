package core

import (
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
)

// TestHealthRecordSiteAllocFree guards the per-commit health sample: the
// admission→commit latency record that feeds Engine.Health rides the
// commit path of every node, so it must stay allocation-free both when
// sampling is on (lock-free HDR update) and when it is off (nil HDR,
// inert receiver) — the unmetered build must stay byte-identical in
// cost.
func TestHealthRecordSiteAllocFree(t *testing.T) {
	on := newHealthHDR(true)
	if n := testing.AllocsPerRun(1000, func() { on.Record(250 * time.Microsecond) }); n != 0 {
		t.Errorf("health HDR record allocates %.1f/op, want 0", n)
	}
	off := newHealthHDR(false)
	if off != nil {
		t.Fatal("newHealthHDR(false) != nil; disabled sampling must cost a nil check only")
	}
	if n := testing.AllocsPerRun(1000, func() { off.Record(250 * time.Microsecond) }); n != 0 {
		t.Errorf("disabled health record allocates %.1f/op, want 0", n)
	}
	// AllocsPerRun does one warmup run beyond its count.
	if on.Count() < 1000 || on.Quantile(0.99) <= 0 {
		t.Errorf("health HDR sample: count=%d p99=%d", on.Count(), on.Quantile(0.99))
	}
}

// TestUnmeteredEngineReportsFinalizeLatency pins the case the cluster
// actually runs: partition engines have no Options.Metrics (fixed series
// names would collide on a shared registry) but Options.Health on, and
// their Health() samples must still carry nonzero finalize latencies —
// admission stamping must not be gated on metrics alone, or every hop in
// /debug/health reads p99 = 0.
func TestUnmeteredEngineReportsFinalizeLatency(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	mid := g.AddNode(graph.Node{
		Name: "double",
		Op: &operator.Map{Fn: func(e event.Event) ([]byte, error) {
			return operator.EncodeValue(operator.DecodeValue(e.Payload) * 2), nil
		}},
		Traits:      operator.Traits{Deterministic: true},
		Speculative: true,
	})
	g.Connect(src, 0, mid, 0)
	eng := newTestEngine(t, g, Options{Seed: 1, Health: true})
	sink := &sinkCollector{}
	if err := eng.Subscribe(mid, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, err := eng.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 50; i++ {
		if _, err := s.Emit(i, operator.EncodeValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	sink.waitFinals(t, 50)
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	samples := eng.Health()
	if len(samples) == 0 {
		t.Fatal("Health() empty with Options.Health on")
	}
	for _, h := range samples {
		if h.Node != "double" {
			continue
		}
		if h.Committed == 0 {
			t.Errorf("node %s: committed = 0", h.Node)
		}
		if h.FinalizeCount == 0 || h.FinalizeP99Ns <= 0 {
			t.Errorf("node %s: finalizeCount=%d p99=%dns — unmetered engine dropped health latency samples",
				h.Node, h.FinalizeCount, h.FinalizeP99Ns)
		}
		return
	}
	t.Fatal("no Health() sample for node double")
}
