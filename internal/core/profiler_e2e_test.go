package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/metricstest"
	"streammine/internal/operator"
	"streammine/internal/profiler"
)

// TestProfilerAttributesConflicts runs the paper's §3.1 classifier at
// maximum contention (one class, many workers) with Metrics, the
// speculation-waste profiler and Health on and asserts the attribution
// chain end to end: every view of a node's ledger — its series, Waste()
// and NodeStats — reads the same numbers, the conflict heatmap names the
// contended operator and state bucket ("hot", "classes[0]"), and every
// profiler_* series is documented.
func TestProfilerAttributesConflicts(t *testing.T) {
	reg := metrics.NewRegistry()
	prof := profiler.New()

	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	hot := g.AddNode(graph.Node{
		Name:        "hot",
		Op:          &operator.Classifier{Classes: 1, Cost: 200 * time.Microsecond},
		Traits:      operator.ClassifierTraits(1),
		Speculative: true,
		Workers:     8,
	})
	g.Connect(src, 0, hot, 0)
	eng := newTestEngine(t, g, Options{Seed: 91, Metrics: reg, Profiler: prof, Health: true})
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
	waste := func(node string) profiler.NodeWaste {
		t.Helper()
		i := slices.IndexFunc(sum.Nodes, func(n profiler.NodeWaste) bool { return n.Node == node })
		if i < 0 {
			t.Fatalf("no ledger for node %s; nodes: %+v", node, sum.Nodes)
		}
		return sum.Nodes[i]
	}
	nw := waste("hot")
	if nw.AbortedAttempts["conflict"] == 0 {
		t.Skip("no conflicts materialized on this host")
	}

	// Every view reads the node's one ledger, so they agree exactly.
	val := func(name string, labels metrics.Labels) float64 {
		t.Helper()
		v, ok := metricstest.Value(reg, name, labels)
		if !ok {
			t.Fatalf("metric %s %v not registered", name, labels)
		}
		return v
	}
	type view struct {
		what        string
		left, right float64
	}
	for _, h := range eng.Health() {
		id := map[string]graph.NodeID{"src": src, "hot": hot}[h.Node]
		st, _ := eng.Stats(id)
		nw := waste(h.Node)
		node := metrics.Labels{"node": h.Node}
		aborts := func(c profiler.Cause) float64 {
			return val("core_aborts_total", metrics.Labels{"node": h.Node, "cause": c.String()})
		}
		views := []view{
			{"core_revokes_total = RevokedOutputs", val("core_revokes_total", node), float64(nw.RevokedOutputs)},
			{"core_revokes_total = NodeStats.Revoked", val("core_revokes_total", node), float64(st.Revoked)},
			{"core_reexecutions_total = Reexecutions", val("core_reexecutions_total", node), float64(nw.Reexecutions)},
			{"core_reexecutions_total = NodeStats.Reexecuted", val("core_reexecutions_total", node), float64(st.Reexecuted)},
			{"core_cascade_aborts_total = NodeStats.CascadeAborts", val("core_cascade_aborts_total", node), float64(st.CascadeAborts)},
			{"core_finalize_latency count = Health FinalizeCount", val("core_finalize_latency", node), float64(h.FinalizeCount)},
			{"profiler_abort_spec_depth count = SpecDepthCount", val("profiler_abort_spec_depth", node), float64(nw.SpecDepthCount)},
			{"SpecDepthCount = aborted attempts", float64(nw.SpecDepthCount), float64(nw.TotalAborted())},
			{"aborts{revoke} + aborts{error} = NodeStats.Cancelled", aborts(profiler.CauseRevoke) + aborts(profiler.CauseError), float64(st.Cancelled)},
		}
		for c := range numCauses {
			attempts := float64(nw.AbortedAttempts[c.String()])
			views = append(views,
				view{"core_aborts_total{" + c.String() + "} = AbortedAttempts", aborts(c), attempts},
				view{"NodeStats.AbortsBy[" + c.String() + "] = AbortedAttempts", float64(st.AbortsBy[c]), attempts})
		}
		for _, v := range views {
			if v.left != v.right {
				t.Errorf("node %s: %s: %v != %v", h.Node, v.what, v.left, v.right)
			}
		}
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
}
