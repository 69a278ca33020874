package core

import (
	"testing"
	"time"

	"streammine/internal/graph"
	"streammine/internal/operator"
)

// TestConflictBackoffReducesWastedWork runs a maximally contended workload
// (one state field, many workers) with and without the §4 promptness
// knob. The knob trades promptness for parsimony: with backoff, the
// *rate* of wasted speculative executions (aborts per second) must drop —
// total aborts can stay similar because retries still collide, but they
// stop burning resources in a tight loop.
func TestConflictBackoffReducesWastedWork(t *testing.T) {
	run := func(backoff time.Duration) (NodeStats, time.Duration) {
		g := graph.New()
		src := g.AddNode(graph.Node{Name: "src"})
		proc := g.AddNode(graph.Node{
			Name:        "hot",
			Op:          &operator.Classifier{Classes: 1, Cost: 300 * time.Microsecond},
			Traits:      operator.ClassifierTraits(1),
			Speculative: true,
			Workers:     8,
		})
		g.Connect(src, 0, proc, 0)
		eng := newTestEngine(t, g, Options{Seed: 41, ConflictBackoff: backoff})
		s, _ := eng.Source(src)
		const events = 120
		for i := 0; i < events; i++ {
			if _, err := s.Emit(uint64(i), nil); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		drainOrDump(t, eng, 10*time.Second)
		elapsed := time.Since(start)
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
		st, _ := eng.Stats(proc)
		if st.Committed != events {
			t.Fatalf("committed %d of %d", st.Committed, events)
		}
		return st, elapsed
	}
	prompt, promptTime := run(0)
	polite, politeTime := run(5 * time.Millisecond)
	if prompt.Aborts < 20 {
		t.Skip("no meaningful contention materialized on this host")
	}
	promptRate := float64(prompt.Aborts) / promptTime.Seconds()
	politeRate := float64(polite.Aborts) / politeTime.Seconds()
	if politeRate >= promptRate {
		t.Fatalf("backoff did not reduce the wasted-work rate: %.0f aborts/s vs %.0f without",
			politeRate, promptRate)
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
