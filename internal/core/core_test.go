package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streammine/internal/checkpoint"
	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/transport"
	"streammine/internal/wal"
)

// sinkCollector gathers subscribed outputs.
type sinkCollector struct {
	mu    sync.Mutex
	spec  []event.Event
	final []event.Event
}

func (s *sinkCollector) fn(ev event.Event, final bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if final {
		s.final = append(s.final, ev)
	} else {
		s.spec = append(s.spec, ev)
	}
}

func (s *sinkCollector) finals() []event.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]event.Event, len(s.final))
	copy(out, s.final)
	return out
}

func (s *sinkCollector) specs() []event.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]event.Event, len(s.spec))
	copy(out, s.spec)
	return out
}

// waitFinals polls until the collector has at least n final events.
func (s *sinkCollector) waitFinals(t *testing.T, n int) []event.Event {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if f := s.finals(); len(f) >= n {
			return f
		}
		time.Sleep(500 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %d final events (have %d)", n, len(s.finals()))
	return nil
}

// memScanner is a LogScanner over what the given disks hold, read in the
// order given.
func memScanner(disks ...*storage.MemDisk) func() ([]wal.Record, error) {
	return func() ([]wal.Record, error) {
		var all []wal.Record
		for _, d := range disks {
			recs, err := wal.Scan(d.Contents())
			if err != nil {
				return nil, err
			}
			all = append(all, recs...)
		}
		return all, nil
	}
}

// newTestEngine builds an engine over an instant in-memory disk, which is
// also what its recoveries read the decision log back from.
func newTestEngine(t *testing.T, g *graph.Graph, opts Options) *Engine {
	t.Helper()
	if opts.Pool == nil {
		disk := storage.NewMemDisk()
		pool := storage.NewPool([]storage.Disk{disk})
		t.Cleanup(func() { pool.Close() })
		opts.Pool, opts.LogScanner = pool, memScanner(disk)
	}
	eng, err := New(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)
	return eng
}

func TestPipelineBasic(t *testing.T) {
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
	eng := newTestEngine(t, g, Options{Seed: 1})
	sink := &sinkCollector{}
	if err := eng.Subscribe(mid, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, err := eng.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		if _, err := s.Emit(i, operator.EncodeValue(i)); err != nil {
			t.Fatal(err)
		}
	}
	finals := sink.waitFinals(t, 10)
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if len(finals) != 10 {
		t.Fatalf("got %d finals", len(finals))
	}
	seen := map[uint64]bool{}
	for _, ev := range finals {
		v := operator.DecodeValue(ev.Payload)
		if v != ev.Key*2 {
			t.Fatalf("event key %d value %d, want %d", ev.Key, v, ev.Key*2)
		}
		if seen[ev.Key] {
			t.Fatalf("duplicate final for key %d", ev.Key)
		}
		seen[ev.Key] = true
	}
	// A deterministic stateless operator with final inputs and no logged
	// decisions sends outputs final immediately: no speculative sightings.
	if sp := sink.specs(); len(sp) != 0 {
		t.Fatalf("unexpected speculative outputs: %d", len(sp))
	}
}

func TestSourceValidation(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	op := g.AddNode(graph.Node{Name: "op", Op: &operator.Union{}})
	g.Connect(src, 0, op, 0)
	eng := newTestEngine(t, g, Options{})
	if _, err := eng.Source(op); err == nil {
		t.Fatal("Source on an operator node succeeded")
	}
	if _, err := eng.Source(graph.NodeID(99)); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("Source(99) = %v", err)
	}
}

// TestSpeculativeOutputsThenFinalize uses a slow disk so that a logging
// operator's outputs observably travel speculative first and finalize
// later — the paper's core mechanism.
func TestSpeculativeOutputsThenFinalize(t *testing.T) {
	pool := storage.NewPool([]storage.Disk{storage.NewSimDisk(20*time.Millisecond, 0)})
	defer pool.Close()
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	lg := g.AddNode(graph.Node{
		Name:        "logger",
		Op:          &operator.Passthrough{LogDecision: true},
		Speculative: true,
	})
	g.Connect(src, 0, lg, 0)
	eng := newTestEngine(t, g, Options{Pool: pool, Seed: 2})
	sink := &sinkCollector{}
	if err := eng.Subscribe(lg, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, err := eng.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.Emit(7, operator.EncodeValue(7)); err != nil {
		t.Fatal(err)
	}
	// The speculative copy must arrive well before the 20ms log write.
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.specs()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no speculative output")
		}
		time.Sleep(100 * time.Microsecond)
	}
	specLatency := time.Since(start)
	finals := sink.waitFinals(t, 1)
	finalLatency := time.Since(start)
	if specLatency > 15*time.Millisecond {
		t.Fatalf("speculative output took %v, want < log latency", specLatency)
	}
	if finalLatency < 15*time.Millisecond {
		t.Fatalf("finalization took %v, want >= ~20ms log latency", finalLatency)
	}
	if !finals[0].SameContent(sink.specs()[0]) {
		t.Fatal("final content differs from speculative content")
	}
	if eng.Err() != nil {
		t.Fatal(eng.Err())
	}
}

// TestNonSpeculativeHoldsOutputs verifies the baseline: outputs appear only
// after the log write completes, and never speculatively.
func TestNonSpeculativeHoldsOutputs(t *testing.T) {
	pool := storage.NewPool([]storage.Disk{storage.NewSimDisk(15*time.Millisecond, 0)})
	defer pool.Close()
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	lg := g.AddNode(graph.Node{
		Name: "logger",
		Op:   &operator.Passthrough{LogDecision: true},
	})
	g.Connect(src, 0, lg, 0)
	eng := newTestEngine(t, g, Options{Pool: pool, Seed: 3})
	sink := &sinkCollector{}
	if err := eng.Subscribe(lg, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)
	start := time.Now()
	if _, err := s.Emit(1, nil); err != nil {
		t.Fatal(err)
	}
	finals := sink.waitFinals(t, 1)
	if lat := time.Since(start); lat < 12*time.Millisecond {
		t.Fatalf("baseline output after %v, want >= ~15ms", lat)
	}
	if len(sink.specs()) != 0 {
		t.Fatal("baseline node sent speculative outputs")
	}
	if len(finals) != 1 {
		t.Fatalf("finals = %d", len(finals))
	}
}

// TestSpeculationOverlapsLoggingChain is the paper's headline effect
// (Figure 3): with N logging operators in a chain, the non-speculative
// latency is ≈ N×d while the speculative one stays ≈ d.
func TestSpeculationOverlapsLoggingChain(t *testing.T) {
	const d = 10 * time.Millisecond
	run := func(speculative bool) time.Duration {
		// One pool per operator, as in the paper's per-process setup.
		pools := make(map[graph.NodeID]*storage.Pool)
		g := graph.New()
		src := g.AddNode(graph.Node{Name: "src"})
		prev := src
		var last graph.NodeID
		for i := 0; i < 3; i++ {
			n := g.AddNode(graph.Node{
				Name:        string(rune('a' + i)),
				Op:          &operator.Passthrough{LogDecision: true},
				Speculative: speculative,
			})
			pool := storage.NewPool([]storage.Disk{storage.NewSimDisk(d, 0)})
			defer pool.Close()
			pools[n] = pool
			g.Connect(prev, 0, n, 0)
			prev, last = n, n
		}
		shared := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
		defer shared.Close()
		eng := newTestEngine(t, g, Options{Pool: shared, NodePools: pools, Seed: 4})
		sink := &sinkCollector{}
		if err := eng.Subscribe(last, 0, sink.fn); err != nil {
			t.Fatal(err)
		}
		s, _ := eng.Source(src)
		start := time.Now()
		if _, err := s.Emit(1, nil); err != nil {
			t.Fatal(err)
		}
		sink.waitFinals(t, 1)
		lat := time.Since(start)
		drainOrDump(t, eng, 10*time.Second)
		eng.Stop()
		return lat
	}
	nonSpec := run(false)
	spec := run(true)
	// Expect ≈3d vs ≈d; require a conservative 1.7× separation.
	if spec*17/10 >= nonSpec {
		t.Fatalf("speculation did not overlap logging: spec=%v nonspec=%v", spec, nonSpec)
	}
	if nonSpec < 25*time.Millisecond {
		t.Fatalf("non-speculative chain latency %v implausibly low", nonSpec)
	}
}

// TestStatefulParallelismCorrectness runs a classifier with 4 workers and
// verifies optimistic parallelization does not lose updates.
func TestStatefulParallelismCorrectness(t *testing.T) {
	const classes, events = 8, 400
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	cls := g.AddNode(graph.Node{
		Name:        "classifier",
		Op:          &operator.Classifier{Classes: classes},
		Traits:      operator.ClassifierTraits(classes),
		Speculative: true,
		Workers:     4,
	})
	g.Connect(src, 0, cls, 0)
	eng := newTestEngine(t, g, Options{Seed: 5})
	sink := &sinkCollector{}
	if err := eng.Subscribe(cls, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)
	for i := 0; i < events; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	finals := sink.waitFinals(t, events)
	drainOrDump(t, eng, 30*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	// Per class, the set of emitted counts must be exactly 1..N_class.
	perClass := make(map[uint64][]uint64)
	for _, ev := range finals {
		class, count := operator.DecodePair(ev.Payload)
		perClass[class] = append(perClass[class], count)
	}
	total := 0
	for class, counts := range perClass {
		seen := make(map[uint64]bool)
		var max uint64
		for _, c := range counts {
			if seen[c] {
				t.Fatalf("class %d: duplicate count %d (lost update or double count)", class, c)
			}
			seen[c] = true
			if c > max {
				max = c
			}
		}
		if int(max) != len(counts) {
			t.Fatalf("class %d: max count %d but %d events", class, max, len(counts))
		}
		total += len(counts)
	}
	if total != events {
		t.Fatalf("accounted %d events, want %d", total, events)
	}
	st, _ := eng.Stats(cls)
	if st.Committed != events {
		t.Fatalf("committed %d, want %d", st.Committed, events)
	}
}

// TestRollbackReexecution injects a speculative event directly, replaces
// its content, and verifies the consumer's output is re-emitted as a new
// version and finalized with the replacement content (paper §3.1).
func TestRollbackReexecution(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	agg := g.AddNode(graph.Node{
		Name:        "sum",
		Op:          &operator.CountWindowAvg{Window: 1}, // emits each value
		Traits:      operator.CountWindowTraits,
		Speculative: true,
	})
	g.Connect(src, 0, agg, 0)
	eng := newTestEngine(t, g, Options{Seed: 6})
	sink := &sinkCollector{}
	if err := eng.Subscribe(agg, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	n, err := eng.node(agg)
	if err != nil {
		t.Fatal(err)
	}
	id := event.ID{Source: 77, Seq: 1}
	specEv := event.Event{ID: id, Timestamp: 100, Key: 1, Payload: operator.EncodeValue(10), Speculative: true}
	n.mailbox.Push(transport.Message{Type: transport.MsgEvent, Event: specEv, Input: 0})

	// Wait for the speculative output carrying value 10.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if sp := sink.specs(); len(sp) > 0 && operator.DecodeValue(sp[len(sp)-1].Payload) == 10 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no speculative output for v0")
		}
		time.Sleep(200 * time.Microsecond)
	}

	// Replace the input with different content (version 1), then finalize.
	repl := event.Event{ID: id, Timestamp: 100, Key: 1, Payload: operator.EncodeValue(42), Speculative: true, Version: 1}
	n.mailbox.Push(transport.Message{Type: transport.MsgEvent, Event: repl, Input: 0})
	for {
		sp := sink.specs()
		if len(sp) >= 2 && operator.DecodeValue(sp[len(sp)-1].Payload) == 42 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no re-emitted output after replacement: %d spec events", len(sink.specs()))
		}
		time.Sleep(200 * time.Microsecond)
	}
	n.mailbox.Push(transport.Message{Type: transport.MsgFinalize, ID: id, Version: 1})

	finals := sink.waitFinals(t, 1)
	if got := operator.DecodeValue(finals[0].Payload); got != 42 {
		t.Fatalf("final value = %d, want 42 (replacement content)", got)
	}
	st, _ := eng.Stats(agg)
	if st.Reexecuted == 0 {
		t.Fatal("no re-execution recorded")
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestReplacementWithSameDrawsIsStable: sticky decisions make a rollback
// re-execution reuse its logged random draw, so an input replacement that
// does not change the draw-dependent part re-emits a changed output whose
// random component is unchanged.
func TestStickyDecisionsAcrossReexecution(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	// Operator output = input value + random draw.
	op := g.AddNode(graph.Node{
		Name:        "addrand",
		Op:          &randAdder{},
		Speculative: true,
	})
	g.Connect(src, 0, op, 0)
	eng := newTestEngine(t, g, Options{Seed: 7})
	sink := &sinkCollector{}
	if err := eng.Subscribe(op, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	n, _ := eng.node(op)
	id := event.ID{Source: 9, Seq: 1}
	n.mailbox.Push(transport.Message{Type: transport.MsgEvent, Input: 0, Event: event.Event{
		ID: id, Timestamp: 1, Key: 1, Payload: operator.EncodeValue(100), Speculative: true,
	}})
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.specs()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no output")
		}
		time.Sleep(200 * time.Microsecond)
	}
	out0 := operator.DecodeValue(sink.specs()[0].Payload)
	draw := out0 - 100

	n.mailbox.Push(transport.Message{Type: transport.MsgEvent, Input: 0, Event: event.Event{
		ID: id, Timestamp: 1, Key: 1, Payload: operator.EncodeValue(500), Speculative: true, Version: 1,
	}})
	for {
		sp := sink.specs()
		if len(sp) >= 2 {
			out1 := operator.DecodeValue(sp[len(sp)-1].Payload)
			if out1-500 != draw {
				t.Fatalf("re-execution drew a different random: first %d, second %d", draw, out1-500)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no re-emitted output")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// randAdder emits input value + one logged random draw (bounded).
type randAdder struct {
	operator.NopOperator
}

func (r *randAdder) Process(ctx operator.Context, e event.Event) error {
	d, err := ctx.Random()
	if err != nil {
		return err
	}
	return ctx.Emit(e.Key, operator.EncodeValue(operator.DecodeValue(e.Payload)+d%1000))
}

// TestUnionAggregatePipeline exercises the paper's Fig. 1 core: two
// sources → union → stateful window aggregate, with correct totals.
func TestUnionAggregatePipeline(t *testing.T) {
	g := graph.New()
	p1 := g.AddNode(graph.Node{Name: "p1"})
	p2 := g.AddNode(graph.Node{Name: "p2"})
	union := g.AddNode(graph.Node{Name: "union", Op: &operator.Union{}, Traits: operator.Traits{OrderSensitive: true}, Speculative: true})
	agg := g.AddNode(graph.Node{
		Name:        "avg",
		Op:          &operator.CountWindowAvg{Window: 10},
		Traits:      operator.CountWindowTraits,
		Speculative: true,
	})
	g.Connect(p1, 0, union, 0)
	g.Connect(p2, 0, union, 1)
	g.Connect(union, 0, agg, 0)
	eng := newTestEngine(t, g, Options{Seed: 8})
	sink := &sinkCollector{}
	if err := eng.Subscribe(agg, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s1, _ := eng.Source(p1)
	s2, _ := eng.Source(p2)
	for i := 0; i < 10; i++ {
		if _, err := s1.Emit(1, operator.EncodeValue(10)); err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Emit(2, operator.EncodeValue(30)); err != nil {
			t.Fatal(err)
		}
	}
	finals := sink.waitFinals(t, 2)
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	// 20 events in windows of 10: each window averages a mix of 10s and
	// 30s; the total sum across windows must be 2 windows × window avg ×
	// 10 = total sum 400 → avg of averages = 20.
	if len(finals) != 2 {
		t.Fatalf("windows = %d", len(finals))
	}
	sum := operator.DecodeValue(finals[0].Payload) + operator.DecodeValue(finals[1].Payload)
	if sum != 40 {
		t.Fatalf("window averages sum to %d, want 40", sum)
	}
}

// TestAckPruning: after draining, upstream output buffers are empty for
// stateless consumers.
func TestAckPruning(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	f := g.AddNode(graph.Node{Name: "filter", Op: &operator.Filter{}, Speculative: true})
	g.Connect(src, 0, f, 0)
	eng := newTestEngine(t, g, Options{Seed: 9})
	s, _ := eng.Source(src)
	for i := 0; i < 50; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	drainOrDump(t, eng, 10*time.Second)
	srcNode, _ := eng.node(src)
	deadline := time.Now().Add(5 * time.Second)
	for {
		srcNode.mu.Lock()
		left := srcNode.outBuf.len()
		srcNode.mu.Unlock()
		if left == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("source output buffer still holds %d events after drain", left)
		}
		time.Sleep(time.Millisecond)
	}
}

// countingStore counts the snapshots saved through it.
type countingStore struct {
	checkpoint.Store
	saves atomic.Int64
}

func (s *countingStore) Save(snap *checkpoint.Snapshot) error {
	s.saves.Add(1)
	return s.Store.Save(snap)
}

// TestCheckpointBatchesAcks: a stateful consumer with periodic checkpoints
// ACKs its inputs upstream only once a checkpoint covers them. Run end to
// end, whatever commit groups form, the source ends up holding exactly the
// events the last checkpoint does not cover. Driven by hand, one commit
// group that crosses three multiples of CheckpointEvery saves one snapshot,
// which covers the whole group, and sends its ACKs upstream as one run.
func TestCheckpointBatchesAcks(t *testing.T) {
	const events, every = 35, 10
	build := func(t *testing.T) (src, cls *node, saves func() int) {
		g := graph.New()
		srcID := g.AddNode(graph.Node{Name: "src"})
		clsID := g.AddNode(graph.Node{
			Name:            "classifier",
			Op:              &operator.Classifier{Classes: 4},
			Traits:          operator.ClassifierTraits(4),
			Speculative:     true,
			CheckpointEvery: every,
		})
		g.Connect(srcID, 0, clsID, 0)
		pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
		t.Cleanup(func() { pool.Close() })
		store := &countingStore{Store: checkpoint.NewMemStore()}
		eng, err := New(g, Options{Seed: 10, Pool: pool, CheckpointStore: store})
		if err != nil {
			t.Fatal(err)
		}
		return eng.nodes[srcID], eng.nodes[clsID], func() int { return int(store.saves.Load()) }
	}

	t.Run("pipeline", func(t *testing.T) {
		src, cls, saves := build(t)
		if err := src.eng.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(src.eng.Stop)
		s, _ := src.eng.Source(0)
		for i := 0; i < events; i++ {
			if _, err := s.Emit(uint64(i), nil); err != nil {
				t.Fatal(err)
			}
		}
		drainOrDump(t, src.eng, 10*time.Second)
		cls.mu.Lock()
		uncovered := len(cls.sinceCkpt)
		cls.mu.Unlock()
		if saves() == 0 || uncovered > events-every {
			t.Fatalf("%d checkpoints, %d commits uncovered; want at least one covering %d", saves(), uncovered, every)
		}
		// The drain waited for the last mark's ACKs to reach the source.
		src.mu.Lock()
		left := src.outBuf.len()
		src.mu.Unlock()
		if left != uncovered {
			t.Fatalf("source buffer holds %d, want the %d the last checkpoint does not cover", left, uncovered)
		}
	})

	t.Run("group", func(t *testing.T) {
		src, cls, saves := build(t)
		openReadyTasks(t, cls, 1, events)
		cls.commitBatch(maxRun)
		if got := cls.cCommitted.Load(); got != events {
			t.Fatalf("one turn committed %d tasks, want all %d", got, events)
		}
		if saves() != 1 {
			t.Fatalf("a group of %d saved %d snapshots, want one covering all", events, saves())
		}
		// The ACKs leave once the checkpoint's mark is stable; then the ACK
		// run queued at the source is all that is in flight.
		for deadline := time.Now().Add(5 * time.Second); src.mailbox.Len() == 0 || cls.eng.inflight.n.Load() != 1; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("no ACK reached the source")
			}
		}
		cls.mu.Lock()
		uncovered := len(cls.sinceCkpt)
		cls.mu.Unlock()
		it, _, _ := src.mailbox.Pop(nil)
		if it.msg.Type != transport.MsgAckBatch || len(it.msg.Finals) != events || src.mailbox.Len() != 0 || uncovered != 0 {
			t.Fatalf("upstream got %v with %d references and %d frames behind, %d commits left unACKed; want one ACK run of %d",
				it.msg.Type, len(it.msg.Finals), src.mailbox.Len(), uncovered, events)
		}
	})
}

// TestOperatorErrorSurfaces: a failing operator is reported by Engine.Err.
func TestOperatorErrorSurfaces(t *testing.T) {
	wantErr := errors.New("kaboom")
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	bad := g.AddNode(graph.Node{
		Name: "bad",
		Op:   &operator.Map{Fn: func(event.Event) ([]byte, error) { return nil, wantErr }},
	})
	g.Connect(src, 0, bad, 0)
	eng := newTestEngine(t, g, Options{Seed: 11})
	s, _ := eng.Source(src)
	if _, err := s.Emit(1, nil); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("operator error never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(eng.Err(), wantErr) {
		t.Fatalf("Err = %v, want kaboom", eng.Err())
	}
}

// TestDuplicateFinalEventDropped: re-delivering a committed event does not
// produce duplicate outputs (precise recovery's duplicate suppression).
func TestDuplicateFinalEventDropped(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	f := g.AddNode(graph.Node{Name: "pass", Op: &operator.Passthrough{}, Speculative: true})
	g.Connect(src, 0, f, 0)
	eng := newTestEngine(t, g, Options{Seed: 12})
	sink := &sinkCollector{}
	if err := eng.Subscribe(f, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)
	ev, err := s.Emit(5, operator.EncodeValue(5))
	if err != nil {
		t.Fatal(err)
	}
	sink.waitFinals(t, 1)
	drainOrDump(t, eng, 10*time.Second)
	// Replay the same event straight into the node's mailbox.
	n, _ := eng.node(f)
	n.mailbox.Push(transport.Message{Type: transport.MsgEvent, Event: ev, Input: 0})
	drainOrDump(t, eng, 10*time.Second)
	time.Sleep(5 * time.Millisecond)
	if got := len(sink.finals()); got != 1 {
		t.Fatalf("finals after duplicate = %d, want 1", got)
	}
}

// TestStopIdempotent ensures Stop can be called repeatedly.
func TestStopIdempotent(t *testing.T) {
	g := graph.New()
	g.AddNode(graph.Node{Name: "solo"})
	eng := newTestEngine(t, g, Options{})
	eng.Stop()
	eng.Stop()
}
