package core

import (
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/transport"
)

// condEmitter forwards only events whose payload value is odd; used to
// trigger output revocation when a replacement flips the condition.
type condEmitter struct {
	operator.NopOperator
}

func (c *condEmitter) Process(ctx operator.Context, e event.Event) error {
	if operator.DecodeValue(e.Payload)%2 == 1 {
		return ctx.Emit(e.Key, e.Payload)
	}
	return nil
}

// TestRevokeCascadesDownstream: a speculative input whose replacement
// suppresses the operator's output must revoke the already-sent
// speculative output, cancel the downstream task, and leave no finals.
func TestRevokeCascadesDownstream(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	a := g.AddNode(graph.Node{Name: "cond", Op: &condEmitter{}, Speculative: true})
	b := g.AddNode(graph.Node{Name: "pass", Op: &operator.Passthrough{}, Speculative: true})
	g.Connect(src, 0, a, 0)
	g.Connect(a, 0, b, 0)
	eng := newTestEngine(t, g, Options{Seed: 31})
	sink := &sinkCollector{}
	if err := eng.Subscribe(b, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	nodeA, _ := eng.node(a)

	id := event.ID{Source: 50, Seq: 1}
	// v0: odd payload → output flows speculatively through a and b.
	nodeA.mailbox.Push(transport.Message{Type: transport.MsgEvent, Input: 0, Event: event.Event{
		ID: id, Timestamp: 1, Key: 9, Payload: operator.EncodeValue(3), Speculative: true,
	}})
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.specs()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("speculative output never reached the sink")
		}
		time.Sleep(200 * time.Microsecond)
	}

	// v1: even payload → a's re-execution emits nothing → REVOKE cascades.
	nodeA.mailbox.Push(transport.Message{Type: transport.MsgEvent, Input: 0, Event: event.Event{
		ID: id, Timestamp: 1, Key: 9, Payload: operator.EncodeValue(4), Speculative: true, Version: 1,
	}})
	// Finalize the (revised) input; a commits with zero outputs.
	nodeA.mailbox.Push(transport.Message{Type: transport.MsgFinalize, ID: id, Version: 1})

	drainOrDump(t, eng, 10*time.Second)
	time.Sleep(5 * time.Millisecond)
	if got := len(sink.finals()); got != 0 {
		t.Fatalf("revoked output finalized anyway: %d finals", got)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	// Downstream must hold no open tasks (the revoked task was cancelled).
	nodeB, _ := eng.node(b)
	if open := nodeB.openCount(); open != 0 {
		t.Fatalf("downstream still has %d open tasks", open)
	}
}

// TestSplitFanoutEndToEnd runs the Split operator across real ports with
// one sink per branch and verifies the logged random routing is balanced
// and every event lands exactly once.
func TestSplitFanoutEndToEnd(t *testing.T) {
	const branches, total = 3, 120
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	split := g.AddNode(graph.Node{
		Name:        "split",
		Op:          &operator.Split{Outputs: branches},
		OutputPorts: branches,
		Speculative: true,
	})
	g.Connect(src, 0, split, 0)
	eng := newTestEngine(t, g, Options{Seed: 32})
	sinks := make([]*sinkCollector, branches)
	for p := 0; p < branches; p++ {
		sinks[p] = &sinkCollector{}
		if err := eng.Subscribe(split, p, sinks[p].fn); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := eng.Source(src)
	for i := 0; i < total; i++ {
		if _, err := s.Emit(uint64(i), operator.EncodeValue(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	drainOrDump(t, eng, 10*time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for {
		sum := 0
		for _, sk := range sinks {
			sum += len(sk.finals())
		}
		if sum == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("finals = %d, want %d", sum, total)
		}
		time.Sleep(time.Millisecond)
	}
	seen := make(map[uint64]bool)
	for p, sk := range sinks {
		finals := sk.finals()
		if len(finals) == 0 {
			t.Fatalf("branch %d received nothing (random balancing broken)", p)
		}
		for _, ev := range finals {
			v := operator.DecodeValue(ev.Payload)
			if seen[v] {
				t.Fatalf("value %d delivered to multiple branches", v)
			}
			seen[v] = true
		}
	}
}

// TestJoinThroughEngine exercises the two-input Join end to end with the
// interleaving order logged by the engine.
func TestJoinThroughEngine(t *testing.T) {
	g := graph.New()
	left := g.AddNode(graph.Node{Name: "left"})
	right := g.AddNode(graph.Node{Name: "right"})
	join := g.AddNode(graph.Node{
		Name:        "join",
		Op:          &operator.Join{Buckets: 32},
		Traits:      operator.JoinTraits(32),
		Speculative: true,
	})
	g.Connect(left, 0, join, 0)
	g.Connect(right, 0, join, 1)
	eng := newTestEngine(t, g, Options{Seed: 33})
	sink := &sinkCollector{}
	if err := eng.Subscribe(join, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	sl, _ := eng.Source(left)
	sr, _ := eng.Source(right)
	const pairs = 20
	for i := 0; i < pairs; i++ {
		if _, err := sl.Emit(uint64(i), operator.EncodeValue(uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	drainOrDump(t, eng, 10*time.Second) // all left rows stored, no matches yet
	if len(sink.finals()) != 0 {
		t.Fatalf("join fired with one side only")
	}
	for i := 0; i < pairs; i++ {
		if _, err := sr.Emit(uint64(i), operator.EncodeValue(uint64(200+i))); err != nil {
			t.Fatal(err)
		}
	}
	finals := sink.waitFinals(t, pairs)
	drainOrDump(t, eng, 10*time.Second)
	for _, ev := range finals {
		l, r := operator.DecodePair(ev.Payload)
		if l != 100+ev.Key || r != 200+ev.Key {
			t.Fatalf("key %d joined (%d,%d)", ev.Key, l, r)
		}
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTimeWindowThroughEngine checks event-time windows and EmitAt
// timestamps end to end.
func TestTimeWindowThroughEngine(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	win := g.AddNode(graph.Node{
		Name:        "win",
		Op:          &operator.TimeWindowSum{Width: 100},
		Traits:      operator.TimeWindowTraits,
		Speculative: true,
	})
	g.Connect(src, 0, win, 0)
	eng := newTestEngine(t, g, Options{Seed: 34})
	sink := &sinkCollector{}
	if err := eng.Subscribe(win, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)
	// Window [0,100): values 1+2+3; window [100,200): 10; flushed by ts 210.
	for _, e := range []struct {
		ts  int64
		val uint64
	}{{10, 1}, {50, 2}, {90, 3}, {150, 10}, {210, 99}} {
		if _, err := s.EmitAt(e.ts, 1, operator.EncodeValue(e.val)); err != nil {
			t.Fatal(err)
		}
	}
	finals := sink.waitFinals(t, 2)
	drainOrDump(t, eng, 10*time.Second)
	if got := operator.DecodeValue(finals[0].Payload); got != 6 {
		t.Fatalf("window 1 sum = %d, want 6", got)
	}
	if finals[0].Timestamp != 100 {
		t.Fatalf("window 1 stamped %d, want 100", finals[0].Timestamp)
	}
	if got := operator.DecodeValue(finals[1].Payload); got != 10 {
		t.Fatalf("window 2 sum = %d, want 10", got)
	}
}

// TestSourceEmitAfterStop surfaces ErrStopped.
func TestSourceEmitAfterStop(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	eng := newTestEngine(t, g, Options{Seed: 36})
	s, _ := eng.Source(src)
	eng.Stop()
	if _, err := s.Emit(1, nil); err == nil {
		t.Fatal("Emit after Stop succeeded")
	}
}

// TestSubscribeUnknownNode covers the error path.
func TestSubscribeUnknownNode(t *testing.T) {
	g := graph.New()
	g.AddNode(graph.Node{Name: "only"})
	eng := newTestEngine(t, g, Options{})
	if err := eng.Subscribe(graph.NodeID(9), 0, func(event.Event, bool) {}); err == nil {
		t.Fatal("Subscribe to unknown node succeeded")
	}
}

// TestTotalStatsAggregates sanity-checks the engine-wide counter sum.
func TestTotalStatsAggregates(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	a := g.AddNode(graph.Node{Name: "a", Op: &operator.Passthrough{}, Speculative: true})
	b := g.AddNode(graph.Node{Name: "b", Op: &operator.Passthrough{}, Speculative: true})
	g.Connect(src, 0, a, 0)
	g.Connect(a, 0, b, 0)
	eng := newTestEngine(t, g, Options{Seed: 42})
	s, _ := eng.Source(src)
	const events = 25
	for i := 0; i < events; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	drainOrDump(t, eng, 10*time.Second)
	total := eng.TotalStats()
	if total.Committed != 2*events {
		t.Fatalf("total committed = %d, want %d", total.Committed, 2*events)
	}
	if total.FinalViolations != 0 {
		t.Fatalf("final violations = %d, want 0", total.FinalViolations)
	}
}
