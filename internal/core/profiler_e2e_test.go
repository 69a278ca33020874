package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/metricstest"
	"streammine/internal/operator"
	"streammine/internal/profiler"
	"streammine/internal/transport"
)

// hotClassifier builds src → "hot", the paper's §3.1 classifier at
// maximum contention: one class, eight workers.
func hotClassifier(ckptEvery int) (*graph.Graph, graph.NodeID, graph.NodeID) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	hot := g.AddNode(graph.Node{
		Name:            "hot",
		Op:              &operator.Classifier{Classes: 1, Cost: 200 * time.Microsecond},
		Traits:          operator.ClassifierTraits(1),
		Speculative:     true,
		Workers:         8,
		CheckpointEvery: ckptEvery,
	})
	g.Connect(src, 0, hot, 0)
	return g, src, hot
}

// emitAndDrain emits keys from..to-1 on s and waits for the engine to
// drain.
func emitAndDrain(t *testing.T, eng *Engine, s *SourceHandle, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}

// nodeWaste returns the named node's entry of a waste summary.
func nodeWaste(t *testing.T, sum *profiler.Summary, node string) profiler.NodeWaste {
	t.Helper()
	if sum == nil {
		t.Fatal("Waste() = nil with profiling on")
	}
	i := slices.IndexFunc(sum.Nodes, func(n profiler.NodeWaste) bool { return n.Node == node })
	if i < 0 {
		t.Fatalf("no ledger for node %s; nodes: %+v", node, sum.Nodes)
	}
	return sum.Nodes[i]
}

// TestProfilerAttributesConflicts runs the paper's §3.1 classifier at
// maximum contention (one class, many workers) with Metrics, profiling
// and Health on and asserts the attribution chain end to end: every view
// of a node's ledger — its series, Waste() and NodeStats — reads the same
// numbers, and the conflict heatmap names the contended operator and state
// bucket ("hot", "classes").
func TestProfilerAttributesConflicts(t *testing.T) {
	reg := metrics.NewRegistry()
	g, src, hot := hotClassifier(0)
	eng := newTestEngine(t, g, Options{Seed: 91, Metrics: reg, Profile: true, Health: true})
	s, _ := eng.Source(src)
	emitAndDrain(t, eng, s, 0, 150)

	sum := eng.Waste()
	waste := func(node string) profiler.NodeWaste { return nodeWaste(t, sum, node) }
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

// TestWasteSurvivesRecovery: a crash swaps the node's memory, and the
// fresh memory's conflicts still reach the node's ledger and witness ring
// and are named by the state the re-run Op.Init lays out — no heatmap cell
// is unresolved or a bare word address — while the node's waste columns
// keep counting from where they were.
func TestWasteSurvivesRecovery(t *testing.T) {
	g, src, hot := hotClassifier(10)
	eng := newTestEngine(t, g, Options{Seed: 91, Profile: true})
	s, _ := eng.Source(src)
	emitAndDrain(t, eng, s, 0, 150)
	before := nodeWaste(t, eng.Waste(), "hot")
	if before.AbortedAttempts["conflict"] == 0 {
		t.Skip("no conflicts materialized on this host")
	}

	if err := eng.Crash(hot); err != nil {
		t.Fatal(err)
	}
	if err := eng.Recover(hot); err != nil {
		t.Fatal(err)
	}
	emitAndDrain(t, eng, s, 150, 300)
	sum := eng.Waste()
	after := nodeWaste(t, sum, "hot")

	if after.AttemptCPUNs <= before.AttemptCPUNs {
		t.Errorf("attempt CPU %d after recovery, %d before: want growth", after.AttemptCPUNs, before.AttemptCPUNs)
	}
	if after.AbortedAttempts["conflict"] == before.AbortedAttempts["conflict"] {
		t.Skip("no conflicts materialized after recovery on this host")
	}
	witnesses := func(nw profiler.NodeWaste) uint64 {
		return nw.Witnesses["write-write"] + nw.Witnesses["validation"] + nw.Witnesses["cascade"]
	}
	if witnesses(after) <= witnesses(before) {
		t.Errorf("conflict aborts grew %d → %d across recovery but witnesses stayed at %d",
			before.AbortedAttempts["conflict"], after.AbortedAttempts["conflict"], witnesses(after))
	}
	if len(sum.Heatmap) == 0 {
		t.Fatal("conflict heatmap is empty")
	}
	if top := sum.Heatmap[0]; top.Node != "hot" || !strings.HasPrefix(top.State, "classes") {
		t.Errorf("heatmap top entry = %+v, want hot / classes", top)
	}
	for _, he := range sum.Heatmap {
		if he.State == "unresolved" || strings.HasPrefix(he.State, "word@") {
			t.Errorf("heatmap cell %+v names no state", he)
		}
	}
}

// TestCausedByNamesTheUpstream: a revoked input charges the aborted
// attempt it cancels to the operator that made the input — by name when
// this engine hosts it, as op<id> when it does not.
func TestCausedByNamesTheUpstream(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	a := g.AddNode(graph.Node{Name: "a", Op: &operator.Passthrough{}, Speculative: true})
	b := g.AddNode(graph.Node{Name: "b", Op: &operator.Passthrough{}, Speculative: true})
	g.Connect(src, 0, a, 0)
	g.Connect(a, 0, b, 0)
	eng := newTestEngine(t, g, Options{Seed: 31, Profile: true})
	sink := &sinkCollector{}
	if err := eng.Subscribe(b, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	nodeA, _ := eng.node(a)
	id := event.ID{Source: 50, Seq: 1} // made by an operator this engine does not host
	nodeA.mailbox.Push(transport.Message{Type: transport.MsgEvent, Event: event.Event{
		ID: id, Timestamp: 1, Key: 9, Payload: operator.EncodeValue(3), Speculative: true,
	}})
	for deadline := time.Now().Add(5 * time.Second); len(sink.specs()) == 0; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("speculative output never reached the sink")
		}
	}
	nodeA.mailbox.Push(transport.Message{Type: transport.MsgRevoke, ID: id})
	drainOrDump(t, eng, 10*time.Second)

	want := []profiler.CauseEntry{{Source: "a", Count: 1}, {Source: "op50", Count: 1}}
	if got := eng.Waste().CausedBy; !slices.Equal(got, want) {
		t.Errorf("caused_by = %+v, want %+v", got, want)
	}
}
