package core

import (
	"bytes"
	"testing"
	"time"

	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/metricstest"
	"streammine/internal/operator"
)

// TestMetricsEndToEndChaos runs a crash/recover workload with the full
// observability stack on and asserts the counters tell the true story:
// conflicts and revocations surface as nonzero abort counters, recovery
// surfaces as replay counters, the finality invariant holds
// (core_final_violations_total stays 0), and the tracer emits parseable
// spans covering the whole event lifecycle.
func TestMetricsEndToEndChaos(t *testing.T) {
	const totalEvents = 300
	reg := metrics.NewRegistry()
	var traceBuf bytes.Buffer
	tracer := metrics.NewTracerProc(&traceBuf, "")

	// A maximally contended stateful classifier: 4 workers all updating a
	// single class counter, each execution costing real time, so
	// overlapping transactions (and with them conflict aborts) are
	// certain; the two crashes exercise the replay counters.
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{
		Name:            "proc",
		Op:              &operator.Classifier{Classes: 1, Cost: 100 * time.Microsecond},
		Traits:          operator.ClassifierTraits(1),
		Speculative:     true,
		Workers:         4,
		CheckpointEvery: 11,
	})
	g.Connect(src, 0, proc, 0)
	// Four workers on one state word: the contention under which a rule
	// looser than DESIGN.md §6.1's sends finals it later replaces;
	// core_final_violations_total must stay exactly 0.
	eng := newTestEngine(t, g, Options{Seed: 7, Metrics: reg, Tracer: tracer})
	sink := newDedupSink(t)
	if err := eng.Subscribe(proc, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)

	for i := 0; i < totalEvents; i++ {
		if _, err := s.Emit(uint64(i%8), nil); err != nil {
			t.Fatal(err)
		}
		if i == 100 || i == 200 {
			time.Sleep(2 * time.Millisecond)
			if err := eng.Crash(proc); err != nil {
				t.Fatal(err)
			}
			if err := eng.Recover(proc); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !sink.waitCount(totalEvents) {
		t.Fatalf("stalled at %d of %d outputs", sink.count(), totalEvents)
	}
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}

	val := func(name string, labels metrics.Labels) float64 {
		t.Helper()
		v, ok := metricstest.Value(reg, name, labels)
		if !ok {
			t.Fatalf("metric %s %v not registered", name, labels)
		}
		return v
	}

	var aborts float64
	for _, cause := range []string{"conflict", "revoke", "replacement", "error"} {
		aborts += val("core_aborts_total", metrics.Labels{"cause": cause})
	}
	if aborts == 0 {
		t.Error("core_aborts_total = 0 across all causes; want > 0 under contention + crashes")
	}
	if v := val("core_replay_requests_total", nil); v == 0 {
		t.Error("core_replay_requests_total = 0; want > 0 after two recoveries")
	}
	if v := val("core_replayed_events_total", nil); v == 0 {
		t.Error("core_replayed_events_total = 0; want > 0 after two recoveries")
	}
	if v := val("core_final_violations_total", nil); v != 0 {
		t.Errorf("core_final_violations_total = %v; the finality invariant must hold", v)
	}
	if v := val("core_commits_total", nil); v < totalEvents {
		t.Errorf("core_commits_total = %v; want >= %d", v, totalEvents)
	}
	if v := val("wal_appends_total", nil); v == 0 {
		t.Error("wal_appends_total = 0; the stateful node must log decisions")
	}
	// Value() reports a histogram's observation count.
	if v := val("core_finalize_latency", nil); v == 0 {
		t.Error("core_finalize_latency recorded no observations")
	}
	if v := val("wal_append_latency", nil); v == 0 {
		t.Error("wal_append_latency recorded no observations")
	}

	// The tracer must round-trip, and the spans must cover the lifecycle:
	// admission, execution, commit, and the aborts counted above.
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := readSpans(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	phases := make(map[string]int)
	for _, sp := range spans {
		phases[sp.Phase]++
	}
	for _, want := range []string{metrics.PhaseIngress, metrics.PhaseExec, metrics.PhaseCommit, metrics.PhaseAbort} {
		if phases[want] == 0 {
			t.Errorf("no %q spans in trace (got %v)", want, phases)
		}
	}
	// The file holds Count() spans plus the clock header record.
	if uint64(len(spans)) != tracer.Count()+1 {
		t.Errorf("parsed %d spans, tracer counted %d (+1 header)", len(spans), tracer.Count())
	}
	if phases[metrics.PhaseClock] != 1 {
		t.Errorf("trace has %d clock headers, want 1", phases[metrics.PhaseClock])
	}
	// Every event-lifecycle span must carry its lineage trace id.
	for _, sp := range spans {
		if sp.Phase == metrics.PhaseIngress && sp.Trace == "" {
			t.Fatalf("ingress span without trace id: %+v", sp)
		}
	}
}
