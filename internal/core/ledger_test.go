package core

import (
	"slices"
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/metricstest"
	"streammine/internal/operator"
	"streammine/internal/profiler"
	"streammine/internal/storage"
	"streammine/internal/transport"
)

// shrinkingOp emits two outputs on its first attempt and one on every
// later attempt, so that a re-execution revokes the second.
type shrinkingOp struct {
	operator.NopOperator
	attempts int
}

func (o *shrinkingOp) Process(ctx operator.Context, e event.Event) error {
	o.attempts++
	outs := 1
	if o.attempts == 1 {
		outs = 2
	}
	for k := 0; k < outs; k++ {
		if err := ctx.Emit(e.Key, nil); err != nil {
			return err
		}
	}
	return nil
}

// TestReexecutionRevokesReachTheWasteLedger: the output a re-execution no
// longer produces is revoked, and the waste ledger counts it as every
// other view does. The first attempt publishes two outputs, its commit
// loses a conflict, and the retry publishes one.
func TestReexecutionRevokesReachTheWasteLedger(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	op := g.AddNode(graph.Node{Name: "op", Op: &shrinkingOp{}, Speculative: true, Workers: 1})
	sink := g.AddNode(graph.Node{Name: "sink", Op: &operator.Passthrough{}})
	g.Connect(src, 0, op, 0)
	g.Connect(op, 0, sink, 0)
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	t.Cleanup(func() { pool.Close() })
	reg := metrics.NewRegistry()
	eng, err := New(g, Options{Seed: 7, Pool: pool, Metrics: reg, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	n := eng.nodes[op]
	ctx := new(procCtx)
	tk := &task{n: n, seq: 1, state: taskQueued, ev: event.Event{ID: event.ID{Seq: 1}, Speculative: true}}

	n.runTask(tk, ctx)
	if len(tk.sent) != 2 {
		t.Fatalf("the first attempt published %d outputs, want 2", len(tk.sent))
	}
	// The attempt loses a conflict at commit-time validation, which aborts
	// it; the commit turn re-queues the task.
	tk.tx.Abort()
	n.conflictRetry(tk)
	again, _ := n.execQ.Pop()
	n.runTask(again, ctx)
	if len(tk.sent) != 1 {
		t.Fatalf("the retry left %d outputs, want 1", len(tk.sent))
	}

	i := slices.IndexFunc(eng.Waste().Nodes, func(nw profiler.NodeWaste) bool { return nw.Node == "op" })
	if i < 0 {
		t.Fatal("no waste ledger for op")
	}
	nw := eng.Waste().Nodes[i]
	series, _ := metricstest.Value(reg, "core_revokes_total", metrics.Labels{"node": "op"})
	st, _ := eng.Stats(op)
	if nw.RevokedOutputs != 1 || series != 1 || st.Revoked != 1 {
		t.Errorf("revoked outputs: Waste %d, core_revokes_total{node=op} %v, NodeStats %d; want 1 each",
			nw.RevokedOutputs, series, st.Revoked)
	}
	if nw.AbortedAttempts["conflict"] != 1 || nw.Reexecutions != 1 {
		t.Errorf("Waste: %d conflict aborts and %d re-executions, want 1 each", nw.AbortedAttempts["conflict"], nw.Reexecutions)
	}
}

// TestLedgerCountsWithTelemetryOff: with Metrics, Profile, Health and
// Tracer all off, the node's ledger still counts aborts by cause,
// cascades and revocations, and NodeStats shows them. A revoked input
// cancels a task at each of two hops, each of which had sent its output;
// a contended Classifier aborts attempts on conflicts.
func TestLedgerCountsWithTelemetryOff(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	a := g.AddNode(graph.Node{Name: "a", Op: &operator.Passthrough{}, Speculative: true})
	b := g.AddNode(graph.Node{Name: "b", Op: &operator.Passthrough{}, Speculative: true})
	g.Connect(src, 0, a, 0)
	g.Connect(a, 0, b, 0)
	eng := newTestEngine(t, g, Options{Seed: 31})
	sink := &sinkCollector{}
	if err := eng.Subscribe(b, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	nodeA, _ := eng.node(a)
	id := event.ID{Source: 50, Seq: 1}
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
	for _, id := range []graph.NodeID{a, b} {
		st, _ := eng.Stats(id)
		if st.AbortsBy[profiler.CauseRevoke] != 1 || st.CascadeAborts != 1 || st.Revoked != 1 || st.Cancelled != 1 {
			t.Errorf("node %d: %d revoke aborts, %d cascades, %d revoked, %d cancelled; want 1 each",
				id, st.AbortsBy[profiler.CauseRevoke], st.CascadeAborts, st.Revoked, st.Cancelled)
		}
	}

	g, src, hot := hotClassifier(0)
	eng = newTestEngine(t, g, Options{Seed: 91})
	s, _ := eng.Source(src)
	emitAndDrain(t, eng, s, 0, 150)
	st, _ := eng.Stats(hot)
	if st.AbortsBy[profiler.CauseConflict] == 0 {
		t.Skip("no conflicts materialized on this host")
	}
	if st.Reexecuted == 0 || st.Aborts == 0 {
		t.Errorf("%d conflict aborts but %d re-executions and %d STM aborts", st.AbortsBy[profiler.CauseConflict], st.Reexecuted, st.Aborts)
	}
}
