package core

import (
	"testing"
	"time"

	"streammine/internal/detrand"
	"streammine/internal/graph"
	"streammine/internal/operator"
)

// TestChaosRepeatedCrashes hammers the recovery path: a stateful
// classifier is crashed and recovered several times at random points in
// the stream while events keep flowing. The precise-recovery invariants
// must hold at the end of every round:
//
//   - every event's output appears exactly once per distinct content
//     (duplicates byte-identical),
//   - per class, the counter sequence is exactly 1..N (no lost or
//     double-applied state transitions).
func TestChaosRepeatedCrashes(t *testing.T) {
	const (
		totalEvents = 200
		crashes     = 4
		classes     = 3
	)
	rng := detrand.New(20260704)

	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{
		Name:            "proc",
		Op:              &operator.Classifier{Classes: classes},
		Traits:          operator.ClassifierTraits(classes),
		Speculative:     true,
		CheckpointEvery: 7,
	})
	g.Connect(src, 0, proc, 0)
	eng := newTestEngine(t, g, Options{Seed: 99})
	sink := newDedupSink(t) // fails the test on content mismatches
	if err := eng.Subscribe(proc, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)

	// Pick random crash points across the stream.
	crashAt := make(map[int]bool, crashes)
	for len(crashAt) < crashes {
		crashAt[20+rng.Intn(totalEvents-40)] = true
	}

	for i := 0; i < totalEvents; i++ {
		if _, err := s.Emit(uint64(rng.Intn(1000)), nil); err != nil {
			t.Fatal(err)
		}
		if crashAt[i] {
			// Let some progress land, then pull the plug.
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			if err := eng.Crash(proc); err != nil {
				t.Fatal(err)
			}
			if err := eng.Recover(proc); err != nil {
				t.Fatal(err)
			}
		}
	}

	if !sink.waitCount(totalEvents) {
		t.Fatalf("stalled at %d of %d outputs after %d crashes", sink.count(), totalEvents, crashes)
	}
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}

	// Invariant: per class, counts form exactly 1..N.
	perClass := make(map[uint64]map[uint64]bool)
	for _, payload := range sink.snapshot() {
		class, count := operator.DecodePair(payload)
		if perClass[class] == nil {
			perClass[class] = make(map[uint64]bool)
		}
		if perClass[class][count] {
			t.Fatalf("class %d: count %d appeared twice (state double-applied)", class, count)
		}
		perClass[class][count] = true
	}
	seen := 0
	for class, counts := range perClass {
		for c := uint64(1); c <= uint64(len(counts)); c++ {
			if !counts[c] {
				t.Fatalf("class %d: count %d missing (state lost across a crash)", class, c)
			}
		}
		seen += len(counts)
	}
	if seen != totalEvents {
		t.Fatalf("outputs = %d, want %d", seen, totalEvents)
	}
	t.Logf("chaos: %d events, %d crashes, %d byte-identical duplicates dropped",
		totalEvents, crashes, sink.dups)
}

// TestChaosCrashDuringBacklog crashes while a large unprocessed backlog
// sits in the node's (volatile) mailbox: every backlogged event must be
// replayed from the upstream buffer and processed exactly once.
func TestChaosCrashDuringBacklog(t *testing.T) {
	const totalEvents = 150
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{
		Name:            "slow",
		Op:              &operator.Classifier{Classes: 2, Cost: 500 * time.Microsecond},
		Traits:          operator.ClassifierTraits(2),
		Speculative:     true,
		CheckpointEvery: 10,
	})
	g.Connect(src, 0, proc, 0)
	eng := newTestEngine(t, g, Options{Seed: 123})
	sink := newDedupSink(t)
	if err := eng.Subscribe(proc, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)
	// Blast all events; the slow operator builds a backlog.
	for i := 0; i < totalEvents; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond) // some processed, many backlogged
	if err := eng.Crash(proc); err != nil {
		t.Fatal(err)
	}
	if err := eng.Recover(proc); err != nil {
		t.Fatal(err)
	}
	if !sink.waitCount(totalEvents) {
		t.Fatalf("stalled at %d of %d", sink.count(), totalEvents)
	}
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}
