package health

import (
	"testing"
	"time"

	"streammine/internal/core"
	"streammine/internal/metrics"
	"streammine/internal/metricstest"
	"streammine/internal/topology"
)

const testTopo = `{
  "speculative": true,
  "nodes": [
    {"name": "src", "type": "source", "rate": 100, "count": 100},
    {"name": "classify", "type": "classifier", "classes": 4, "costMicros": 10, "inputs": ["src"]},
    {"name": "out", "type": "sink", "inputs": ["classify"]}
  ]
}`

func testModel(t *testing.T, slo time.Duration) *Model {
	t.Helper()
	cfg, err := topology.Parse([]byte(testTopo))
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg, Options{SLO: slo, HeartbeatInterval: 100 * time.Millisecond})
}

func ms(d int) int64 { return int64(time.Duration(d) * time.Millisecond) }

func TestSLOBudgetAttribution(t *testing.T) {
	m := testModel(t, 12*time.Millisecond)
	now := time.Now()
	m.Fold("w1", 0, []core.NodeHealth{
		{Node: "src", Committed: 100, FinalizeCount: 100, FinalizeP50Ns: ms(1), FinalizeP99Ns: ms(2)},
	}, nil, now)
	m.Fold("w2", 1, []core.NodeHealth{
		{Node: "classify", Committed: 100, FinalizeCount: 100, FinalizeP50Ns: ms(5), FinalizeP99Ns: ms(10)},
		{Node: "out", Committed: 100, FinalizeCount: 100, FinalizeP50Ns: ms(2), FinalizeP99Ns: ms(3)},
	}, nil, now)

	v := m.snapshotAt(now)
	if v.SLO.TargetMs != 12 {
		t.Errorf("TargetMs = %v, want 12", v.SLO.TargetMs)
	}
	if v.SLO.ObservedP99Ms != 15 {
		t.Errorf("ObservedP99Ms = %v, want 15 (2+10+3)", v.SLO.ObservedP99Ms)
	}
	if !v.SLO.Violated {
		t.Error("SLO not flagged violated at 15ms observed vs 12ms target")
	}
	if v.SLO.DominantHop != "classify" {
		t.Errorf("DominantHop = %q, want classify", v.SLO.DominantHop)
	}
	if want := []string{"src", "classify", "out"}; len(v.SLO.CriticalPath) != 3 ||
		v.SLO.CriticalPath[0] != want[0] || v.SLO.CriticalPath[2] != want[2] {
		t.Errorf("CriticalPath = %v, want %v", v.SLO.CriticalPath, want)
	}
	var classify *OperatorView
	for i := range v.Operators {
		if v.Operators[i].Node == "classify" {
			classify = &v.Operators[i]
		}
	}
	if classify == nil {
		t.Fatal("no classify operator row")
	}
	if !classify.Dominant {
		t.Error("classify not marked dominant")
	}
	// 10ms of a 12ms budget ≈ 83.3%.
	if classify.BudgetSharePct < 83 || classify.BudgetSharePct > 84 {
		t.Errorf("classify BudgetSharePct = %v, want ≈83.3", classify.BudgetSharePct)
	}
	if classify.Worker != "w2" {
		t.Errorf("classify attributed to %q, want w2", classify.Worker)
	}
}

func TestBackpressureRootCauseChain(t *testing.T) {
	m := testModel(t, 0)
	now := time.Now()
	// src's mailbox backs up (capless) while downstream stays drained —
	// the slow-bridge / straggler signature.
	m.Fold("w1", 0, []core.NodeHealth{{Node: "src", Committed: 400}},
		[]core.NodePressure{{Node: "src", DataDepth: 500}}, now)
	m.Fold("w2", 1, []core.NodeHealth{
		{Node: "classify", Committed: 400}, {Node: "out", Committed: 400},
	}, []core.NodePressure{{Node: "classify", DataDepth: 1}, {Node: "out"}}, now)

	v := m.snapshotAt(now)
	if len(v.Backpressure) != 1 {
		t.Fatalf("Backpressure = %+v, want one chain", v.Backpressure)
	}
	c := v.Backpressure[0]
	if c.Sink != "out" || c.Root != "src" || c.RootWorker != "w1" {
		t.Errorf("chain = %+v, want out → src on w1", c)
	}
	if len(c.Path) != 3 || c.Path[0] != "out" || c.Path[2] != "src" {
		t.Errorf("chain path = %v, want [out classify src]", c.Path)
	}
	if c.Reason == "" {
		t.Error("chain has no reason")
	}
}

func TestBackpressureCreditStalledEdge(t *testing.T) {
	m := testModel(t, 0)
	now := time.Now()
	// classify's mailbox is at cap and src's outputs are credit-parked:
	// classify is the choke point, not src.
	m.Fold("w1", 0, nil, []core.NodePressure{{Node: "src", CreditQueued: 8}}, now)
	m.Fold("w2", 1, nil, []core.NodePressure{
		{Node: "classify", DataDepth: 60, DataCap: 64},
		{Node: "out"},
	}, now)
	v := m.snapshotAt(now)
	if len(v.Backpressure) != 1 {
		t.Fatalf("Backpressure = %+v, want one chain", v.Backpressure)
	}
	if c := v.Backpressure[0]; c.Root != "classify" {
		t.Errorf("root = %q (%+v), want classify (deepest backlog wins)", c.Root, c)
	}
}

func TestStragglerBacklogDeviation(t *testing.T) {
	m := testModel(t, 0)
	now := time.Now()
	fold := func(depth int, at time.Time) {
		m.Fold("w1", 0, []core.NodeHealth{{Node: "src", Committed: 10}},
			[]core.NodePressure{{Node: "src", DataDepth: depth}}, at)
		m.Fold("w2", 1, []core.NodeHealth{
			{Node: "classify", Committed: 10}, {Node: "out", Committed: 10},
		}, []core.NodePressure{{Node: "classify"}, {Node: "out"}}, at)
	}
	fold(0, now)
	if v := m.snapshotAt(now); len(v.Stragglers) != 0 {
		t.Fatalf("healthy cluster flagged stragglers: %+v", v.Stragglers)
	}
	fold(500, now.Add(100*time.Millisecond))
	// Hysteresis: one deviant snapshot must not flag.
	if v := m.snapshotAt(now.Add(150 * time.Millisecond)); len(v.Stragglers) != 0 {
		t.Fatalf("straggler flagged after a single deviant snapshot: %+v", v.Stragglers)
	}
	fold(800, now.Add(200*time.Millisecond))
	v := m.snapshotAt(now.Add(250 * time.Millisecond))
	if len(v.Stragglers) != 1 || v.Stragglers[0].Worker != "w1" {
		t.Fatalf("Stragglers = %+v, want w1 flagged", v.Stragglers)
	}
	if v.Stragglers[0].Reason == "" {
		t.Error("straggler has no reason")
	}
	for _, w := range v.Workers {
		if w.Worker == "w1" && !w.Straggler {
			t.Error("w1 WorkerView not marked straggler")
		}
		if w.Worker == "w2" && w.Straggler {
			t.Error("w2 wrongly marked straggler")
		}
	}
}

func TestStragglerStaleStatus(t *testing.T) {
	m := testModel(t, 0)
	now := time.Now()
	m.Fold("w1", 0, []core.NodeHealth{{Node: "src", Committed: 10}}, nil, now)
	m.Fold("w2", 1, []core.NodeHealth{{Node: "classify", Committed: 10}}, nil, now)
	// w1 goes silent; w2 keeps reporting.
	for i := 1; i <= 3; i++ {
		at := now.Add(time.Duration(i) * 300 * time.Millisecond)
		m.Fold("w2", 1, []core.NodeHealth{{Node: "classify", Committed: 10 + uint64(i)}}, nil, at)
		m.snapshotAt(at)
	}
	v := m.snapshotAt(now.Add(time.Second))
	if len(v.Stragglers) != 1 || v.Stragglers[0].Worker != "w1" {
		t.Fatalf("Stragglers = %+v, want stale w1 flagged", v.Stragglers)
	}
	m.RemoveWorker("w1")
	if v := m.snapshotAt(now.Add(1100 * time.Millisecond)); len(v.Stragglers) != 0 {
		t.Fatalf("evicted worker still flagged: %+v", v.Stragglers)
	}
}

func TestRateEWMAFromFolds(t *testing.T) {
	m := testModel(t, 0)
	now := time.Now()
	for i := 0; i <= 10; i++ {
		at := now.Add(time.Duration(i) * 100 * time.Millisecond)
		m.Fold("w1", 0, []core.NodeHealth{{Node: "src", Committed: uint64(i) * 100}}, nil, at)
	}
	v := m.snapshotAt(now.Add(time.Second))
	op := v.operator("src")
	// 100 events per 100ms = 1000/s; EWMA converges there.
	if op.RateEventsPerSec < 900 || op.RateEventsPerSec > 1100 {
		t.Errorf("src rate = %v, want ≈1000", op.RateEventsPerSec)
	}
}

func TestHealthMetricsRegisteredAndDocumented(t *testing.T) {
	m := testModel(t, 10*time.Millisecond)
	reg := metrics.NewRegistry()
	RegisterMetrics(m, reg)
	now := time.Now()
	m.Fold("w1", 0, []core.NodeHealth{
		{Node: "src", Committed: 10, FinalizeP99Ns: ms(2)},
	}, nil, now)
	if v, ok := reg.Value("health_slo_target_ms", nil); !ok || v != 10 {
		t.Errorf("health_slo_target_ms = %v ok=%v, want 10", v, ok)
	}
	if _, ok := reg.Value("health_hop_p99_ms", metrics.Labels{"node": "classify"}); !ok {
		t.Error("health_hop_p99_ms{node=classify} not registered")
	}
	if _, ok := reg.Value("health_stragglers", nil); !ok {
		t.Error("health_stragglers not registered")
	}

	metricstest.Documented(t, reg, "health_", "OBSERVABILITY.md", 8)
}
