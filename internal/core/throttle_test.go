package core

import (
	"errors"
	"slices"
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/transport"
)

// throttleOf reads one node's throttle position from Pressure.
func throttleOf(t *testing.T, eng *Engine, name string) NodePressure {
	t.Helper()
	for _, p := range eng.Pressure() {
		if p.Node == name {
			return p
		}
	}
	t.Fatalf("%s missing from the pressure snapshot", name)
	return NodePressure{}
}

// TestThrottleEngagesUnderContention: a 4-worker Classifier, with no flow
// configuration, fed bursts of events of one class aborts most of what it
// runs in parallel; its throttle must engage and hold tasks back, and hold no
// slot once the node has drained. Fed events of distinct classes after
// that, it runs clean windows, each raising the cap by one until it is
// back at the open count it engaged at, at most a burst: then it is off.
func TestThrottleEngagesUnderContention(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	hot := g.AddNode(graph.Node{
		Name:        "hot",
		Op:          &operator.Classifier{Classes: 1024, Cost: 20 * time.Microsecond},
		Traits:      operator.ClassifierTraits(1024),
		Speculative: true,
		Workers:     4,
	})
	g.Connect(src, 0, hot, 0)
	eng := newTestEngine(t, g, Options{Seed: 43})
	s, err := eng.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	const burst, chunk = 64, 256
	emit := func(n int, key func(i int) uint64) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.Emit(key(i), nil); err != nil {
				t.Fatal(err)
			}
		}
		drainOrDump(t, eng, 10*time.Second)
	}
	// Bursts until one finds the throttle engaged by an earlier one.
	for bursts := 0; throttleOf(t, eng, "hot").Throttled == 0; bursts++ {
		if bursts == 32 {
			t.Fatalf("contended node never held a task back: %+v", throttleOf(t, eng, "hot"))
		}
		emit(burst, func(int) uint64 { return 0 })
	}
	if p := throttleOf(t, eng, "hot"); p.ThrottleOpen != 0 {
		t.Fatalf("%d speculation slots still held after drain", p.ThrottleOpen)
	}
	for calm := 0; throttleOf(t, eng, "hot").ThrottleCap != 0; calm += chunk {
		if calm > 16*(burst+2) {
			t.Fatalf("throttle still on after %d uncontended events: %+v", calm, throttleOf(t, eng, "hot"))
		}
		emit(chunk, func(i int) uint64 { return uint64(calm + i) })
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if p := throttleOf(t, eng, "hot"); p.ThrottleOpen != 0 {
		t.Fatalf("%d speculation slots held after the uncontended phase", p.ThrottleOpen)
	}
}

// TestThrottleStaysOffWithoutAborts: a 2-worker SketchOp over a wide sketch
// and spread keys, fed in runs of 64 so that speculation stays shallow,
// conflicts too rarely for any window to pass the high-water mark, so its
// throttle never engages. (Thousands of open tasks are not uncontended even
// here: a rare conflict cascades through every open task that read the
// writes it undoes.)
func TestThrottleStaysOffWithoutAborts(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	sk := g.AddNode(graph.Node{
		Name:        "sketch",
		Op:          &operator.SketchOp{Depth: 8, Width: 8192, Seed: 5},
		Traits:      operator.SketchTraits(8, 8192),
		Speculative: true,
		Workers:     2,
	})
	g.Connect(src, 0, sk, 0)
	eng := newTestEngine(t, g, Options{Seed: 44})
	s, err := eng.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	const events, run = 2048, 64
	for i := 0; i < events; i++ {
		if _, err := s.Emit(uint64(i)*2654435761, nil); err != nil {
			t.Fatal(err)
		}
		if i%run == run-1 {
			drainOrDump(t, eng, 10*time.Second)
		}
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	st, _ := eng.Stats(sk)
	if st.Committed != events {
		t.Fatalf("committed %d of %d", st.Committed, events)
	}
	if p := throttleOf(t, eng, "sketch"); p.ThrottleCap != 0 || p.Throttled != 0 || p.ThrottleOpen != 0 {
		t.Fatalf("throttle engaged on an uncontended node (%d re-executions): %+v", st.Reexecuted, p)
	}
}

// handNode builds a speculative node of the given operator in an engine
// that is never started: a test drives its dispatcher by hand, with no
// worker running.
func handNode(t *testing.T, op operator.Operator) *node {
	t.Helper()
	g := graph.New()
	g.AddNode(graph.Node{Name: "n", Op: op, Speculative: true})
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	t.Cleanup(func() { pool.Close() })
	eng, err := New(g, Options{Seed: 45, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	return eng.nodes[0]
}

// engageAtCap1 engages n's throttle as a window of aborts with one task
// open does: the cap is one, and the slot stays taken.
func engageAtCap1(t *testing.T, n *node) {
	t.Helper()
	n.throttle.Admit(false)
	for i := 0; i < 16; i++ {
		n.throttle.Observe(1, true)
	}
	if open, cap, _ := n.throttle.Snapshot(); open != 1 || cap != 1 {
		t.Fatalf("open %d cap %d, want 1/1", open, cap)
	}
}

// queuedSeqs lists the sequences on n's executor queue, lowest first.
func queuedSeqs(n *node) []int64 {
	n.execQ.mu.Lock()
	defer n.execQ.mu.Unlock()
	var seqs []int64
	for _, t := range n.execQ.heap {
		seqs = append(seqs, t.seq)
	}
	slices.Sort(seqs)
	return seqs
}

// failOn is a Passthrough whose Process fails on one key.
type failOn struct {
	operator.Passthrough
	key uint64
}

func (o *failOn) Process(ctx operator.Context, e event.Event) error {
	if e.Key == o.key {
		return errors.New("operator failed")
	}
	return o.Passthrough.Process(ctx, e)
}

// TestThrottleHoldsBackUntilHead drives one node's dispatcher by hand, its
// throttle engaged at cap 1. Tasks it has no slot for wait in the
// dispatcher's ring; a revoked one among them leaves without a slot; the
// oldest reaches the executor queue in the very commit turn that makes it
// the head, even with the one slot taken; and a task its operator fails is
// cancelled by the worker, which leaves the slot to the dispatcher to
// return once a turn retires the task.
func TestThrottleHoldsBackUntilHead(t *testing.T) {
	n := handNode(t, &failOn{key: 99})
	engageAtCap1(t, n)
	n.throttle.Release(1, true) // the window's task is gone; the cap stays 1
	ctx := new(procCtx)
	var run []event.Event
	for i, key := range []uint64{1, 2, 99} {
		n.mailbox.Push(transport.Message{Type: transport.MsgEvent, Event: event.Event{ID: event.ID{Seq: event.Seq(i + 1)}, Key: key}})
	}
	run, _ = popDispatch(t, n, run) // one run: seq 1 takes the slot, 2 and 3 wait
	if q := queuedSeqs(n); !slices.Equal(q, []int64{1}) || n.held.n != 2 {
		t.Fatalf("queued %v with %d held back, want [1] and 2", q, n.held.n)
	}
	if open, _, throttled := n.throttle.Snapshot(); open != 1 || throttled != 2 {
		t.Fatalf("open %d, %d held back; want 1 and 2", open, throttled)
	}

	// Seq 2 is revoked while it waits: it leaves the ring without a slot,
	// and seq 3 still has none.
	n.mailbox.Push(transport.Message{Type: transport.MsgRevoke, ID: event.ID{Seq: 2}})
	run, _ = popDispatch(t, n, run)
	if q := queuedSeqs(n); !slices.Equal(q, []int64{1}) || n.held.n != 1 {
		t.Fatalf("after the revoke: queued %v with %d held back, want [1] and 1", q, n.held.n)
	}

	// The head executes. The one slot goes to a younger task — the engine
	// never makes one, every slot holder being older than what waits, so
	// the test takes it by hand — and the head's commit does not free it.
	first := n.execQ.TryPop()
	n.runTask(first, ctx)
	if !n.throttle.Admit(true) {
		t.Fatal("the younger task's slot was refused")
	}
	if !n.commitBatch(maxRun) || n.nextCommit.Load() != 2 {
		t.Fatalf("seq 1 did not commit: next commit %d", n.nextCommit.Load())
	}
	if q := queuedSeqs(n); len(q) != 0 || n.held.n != 1 {
		t.Fatalf("seq 3 left the ring before it was the head: queued %v", q)
	}
	// The turn that retires the cancelled seq 2 makes seq 3 the head, and
	// it is queued in that turn, slot or none.
	if !n.commitBatch(maxRun) || n.nextCommit.Load() != 3 {
		t.Fatalf("the cancelled seq 2 was not retired: next commit %d", n.nextCommit.Load())
	}
	if q := queuedSeqs(n); !slices.Equal(q, []int64{3}) || n.held.n != 0 {
		t.Fatalf("the head was not queued in the turn that made it head: queued %v, %d held", q, n.held.n)
	}
	n.throttle.Release(1, false) // the younger task's slot

	// Seq 3's operator fails: the worker cancels it and returns no slot...
	n.runTask(n.execQ.TryPop(), ctx)
	if n.err() == nil {
		t.Fatal("the operator error was not recorded")
	}
	if open, _, _ := n.throttle.Snapshot(); open != 1 {
		t.Fatalf("open %d after the worker's cancellation, want 1 (the dispatcher returns it)", open)
	}
	// ...and the turn that retires it does.
	for n.commitBatch(maxRun) {
	}
	if open, _, _ := n.throttle.Snapshot(); open != 0 || n.open.n != 0 {
		t.Fatalf("after drain: %d slots held, %d tasks open; want 0 and 0", open, n.open.n)
	}
}

// TestThrottleOffPathAllocs: while a node's throttle is off, the slot the
// dispatcher takes as it queues a run (queueFresh) and returns for each of
// its tasks (returnSlot) costs no allocation.
func TestThrottleOffPathAllocs(t *testing.T) {
	n := handNode(t, &operator.Passthrough{})
	fresh := freshRun(n, 8)
	allocs := testing.AllocsPerRun(1000, func() {
		n.queueFresh(fresh)
		for tk := n.execQ.TryPop(); tk != nil; tk = n.execQ.TryPop() {
			n.returnSlot(tk, false)
		}
	})
	if allocs != 0 {
		t.Fatalf("off-path take + return of a run of 8: %v allocs, want 0", allocs)
	}
	if open, cap, throttled := n.throttle.Snapshot(); open != 0 || cap != 0 || throttled != 0 {
		t.Fatalf("open %d cap %d, %d held back after clean runs; want 0/0/0", open, cap, throttled)
	}
}

// TestThrottleHeldRunAllocs: engaged and full, the throttle holds a run of
// eight back in the dispatcher's ring and releases it a slot at a time,
// without allocating once the ring has grown.
func TestThrottleHeldRunAllocs(t *testing.T) {
	n := handNode(t, &operator.Passthrough{})
	engageAtCap1(t, n)
	fresh := freshRun(n, 8)
	allocs := testing.AllocsPerRun(1000, func() {
		n.queueFresh(fresh)
		if n.held.n != len(fresh) {
			t.Fatalf("%d of %d held back", n.held.n, len(fresh))
		}
		n.throttle.Release(1, true) // the slot comes back...
		for n.admitHeld(); n.held.n > 0; n.admitHeld() {
			n.returnSlot(n.execQ.TryPop(), true)
		}
		n.returnSlot(n.execQ.TryPop(), true)
		if !n.throttle.Admit(false) { // ...and is taken again for the next run
			t.Fatal("the free slot was refused")
		}
	})
	if allocs != 0 {
		t.Fatalf("holding back and releasing a run of 8: %v allocs, want 0", allocs)
	}
}

// freshRun makes k queued tasks of n, none the commit head.
func freshRun(n *node, k int) []*task {
	block := make([]task, k)
	fresh := make([]*task, k)
	for i := range block {
		block[i].n, block[i].seq, block[i].state = n, int64(100+i), taskQueued
		fresh[i] = &block[i]
	}
	return fresh
}

// TestSourceTwiceEmitsDistinctIDs: every Source call on a node returns the
// one handle, so two callers draw from one sequence and a downstream node
// commits every event they emit, none twice.
func TestSourceTwiceEmitsDistinctIDs(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	down := g.AddNode(graph.Node{Name: "down", Op: &operator.Passthrough{}, Speculative: true})
	g.Connect(src, 0, down, 0)
	eng := newTestEngine(t, g, Options{Seed: 46})
	sink := newDedupSink(t)
	if err := eng.Subscribe(down, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for h := 0; h < 2; h++ {
		s, err := eng.Source(src)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := s.Emit(uint64(i), nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	st, _ := eng.Stats(down)
	if got := sink.count(); got != 2*n || st.Committed != 2*n {
		t.Fatalf("down committed %d tasks with %d distinct IDs, want %d of each", st.Committed, got, 2*n)
	}
}
