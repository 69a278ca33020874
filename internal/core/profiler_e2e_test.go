package core

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/metricstest"
	"streammine/internal/operator"
	"streammine/internal/profiler"
)

// TestProfilerAttributesConflicts runs the paper's §3.1 classifier at
// maximum contention (one class, many workers) with the speculation-waste
// profiler on and asserts the attribution chain end to end: the ledger's
// abort counts agree exactly with core_aborts_total, the conflict heatmap
// names the contended operator and state bucket ("hot", "classes[0]"),
// and the profiler_* metric series mirror the ledger.
func TestProfilerAttributesConflicts(t *testing.T) {
	reg := metrics.NewRegistry()
	prof := profiler.New(profiler.Config{})

	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	hot := g.AddNode(graph.Node{
		Name:        "hot",
		Op:          &operator.Classifier{Classes: 1, Cost: 200 * time.Microsecond},
		Traits:      operator.ClassifierTraits(1),
		Speculative: true,
		Workers:     8,
		// Batched finalize must not disturb the ledger: per-event abort
		// accounting and conflict witnesses survive group commit, so the
		// exact equalities below hold with batching on.
		Flow: &flow.Limits{BatchSize: 8},
	})
	g.Connect(src, 0, hot, 0)
	eng := newTestEngine(t, g, Options{Seed: 91, Metrics: reg, Profiler: prof})
	s, _ := eng.Source(src)
	const events = 150
	for i := 0; i < events; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}

	sum := eng.Waste()
	if sum == nil {
		t.Fatal("Waste() = nil with profiler enabled")
	}
	i := slices.IndexFunc(sum.Nodes, func(n profiler.NodeWaste) bool { return n.Node == "hot" })
	if i < 0 {
		t.Fatalf("no ledger for node hot; nodes: %+v", sum.Nodes)
	}
	nw := &sum.Nodes[i]
	if nw.AbortedAttempts["conflict"] == 0 {
		t.Skip("no conflicts materialized on this host")
	}

	// The ledger charges at exactly the metric increment sites, so the
	// totals must agree without tolerance. Trace/metric cause
	// "replacement" is ledger cause "replace".
	val := func(name string, labels metrics.Labels) float64 {
		t.Helper()
		v, ok := metricstest.Value(reg, name, labels)
		if !ok {
			t.Fatalf("metric %s %v not registered", name, labels)
		}
		return v
	}
	for metCause, ledgerCause := range map[string]string{
		"conflict": "conflict", "revoke": "revoke",
		"replacement": "replace", "error": "error",
	} {
		metric := val("core_aborts_total", metrics.Labels{"cause": metCause})
		if got := float64(nw.AbortedAttempts[ledgerCause]); got != metric {
			t.Errorf("ledger aborts[%s] = %v, core_aborts_total{cause=%q} = %v",
				ledgerCause, got, metCause, metric)
		}
	}
	if got := val("profiler_aborted_attempts_total", metrics.Labels{"node": "hot", "cause": "conflict"}); got != float64(nw.AbortedAttempts["conflict"]) {
		t.Errorf("profiler_aborted_attempts_total = %v, ledger = %d", got, nw.AbortedAttempts["conflict"])
	}

	// Wasted CPU must have been charged for the aborted attempts, and the
	// attempt denominator must dominate the waste.
	if nw.WastedCPUNs["conflict"] <= 0 {
		t.Errorf("wasted_cpu_ns[conflict] = %d, want > 0", nw.WastedCPUNs["conflict"])
	}
	if sum.TotalAttemptNs() < sum.TotalWastedNs() {
		t.Errorf("attempt CPU %d < wasted CPU %d", sum.TotalAttemptNs(), sum.TotalWastedNs())
	}

	// Conflict witnesses resolve to the contended operator and state
	// bucket: the single-bucket class counter renders as bare "classes"
	// (multi-class arrays would render "classes[k]").
	if len(sum.Heatmap) == 0 {
		t.Fatal("conflict heatmap is empty under forced contention")
	}
	top := sum.Heatmap[0]
	if top.Node != "hot" {
		t.Errorf("heatmap top entry node = %q, want %q", top.Node, "hot")
	}
	if !strings.HasPrefix(top.State, "classes") {
		t.Errorf("heatmap top entry state = %q, want the classes counter", top.State)
	}
	if nw.Witnesses["write-write"]+nw.Witnesses["validation"]+nw.Witnesses["cascade"] == 0 {
		t.Errorf("no conflict witnesses recorded: %+v", nw.Witnesses)
	}

	// Every profiler_* series registered at runtime must be documented in
	// the docs/OBSERVABILITY.md inventory table.
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatalf("read metric inventory doc: %v", err)
	}
	seen := make(map[string]bool)
	for _, p := range reg.Snapshot() {
		if !strings.HasPrefix(p.Name, "profiler_") || seen[p.Name] {
			continue
		}
		seen[p.Name] = true
		if !strings.Contains(string(doc), p.Name) {
			t.Errorf("series %s not documented in docs/OBSERVABILITY.md", p.Name)
		}
	}
}
