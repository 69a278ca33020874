package core

import (
	"testing"
	"time"

	"streammine/internal/graph"
	"streammine/internal/operator"
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
// runs in parallel; its throttle must engage and park workers, and hold no
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
			t.Fatalf("contended node never parked a worker: %+v", throttleOf(t, eng, "hot"))
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

// TestThrottleOffPathAllocs: while a node's throttle is off, the slot a
// task takes and returns costs no allocation — the head check is a closure
// over the task and the node, as in execute.
func TestThrottleOffPathAllocs(t *testing.T) {
	g := graph.New()
	g.AddNode(graph.Node{Name: "n", Op: &operator.Passthrough{}, Speculative: true})
	eng := newTestEngine(t, g, Options{Seed: 45})
	n := eng.nodes[0]
	tk := &task{seq: 7}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := n.throttle.TryAdmit(func() bool { return tk.seq <= n.nextCommit.Load() }); !ok {
			t.Fatal("an off throttle refused")
		}
		n.throttle.Release(1, false)
	})
	if allocs != 0 {
		t.Fatalf("off-path admit + release: %v allocs, want 0", allocs)
	}
	if _, cap, _ := n.throttle.Snapshot(); cap != 0 {
		t.Fatalf("clean releases engaged the throttle: cap %d", cap)
	}
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
