package core

import (
	"fmt"
	"testing"
	"time"

	"streammine/internal/detrand"
	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
)

// randomOperator draws one operator configuration.
func randomOperator(rng *detrand.Source) (operator.Operator, operator.Traits) {
	switch rng.Intn(7) {
	case 0:
		return &operator.Passthrough{LogDecision: rng.Intn(2) == 0}, operator.Traits{}
	case 1:
		return &operator.Filter{Pred: func(e event.Event) bool { return e.Key%3 != 0 }}, operator.FilterTraits
	case 2:
		n := 2 + rng.Intn(6)
		return &operator.Classifier{Classes: n}, operator.ClassifierTraits(n)
	case 3:
		return &operator.CountWindowAvg{Window: 1 + rng.Intn(5)}, operator.CountWindowTraits
	case 4:
		return &operator.Shedder{DropPerMille: uint64(rng.Intn(300))}, operator.ShedderTraits
	case 5:
		return &operator.Dedup{Capacity: 64 + rng.Intn(64)}, operator.DedupTraits(128)
	default:
		return &operator.SketchOp{Depth: 3, Width: 128, Seed: rng.Uint64()}, operator.SketchTraits(3, 128)
	}
}

// TestRandomPipelines builds randomized linear pipelines (random operators,
// worker counts, speculation flags) and checks structural engine
// invariants after a drain: no errors, nothing left in flight, every
// dispatched task committed or cancelled, and speculative sightings at the
// sink eventually finalized or revoked.
func TestRandomPipelines(t *testing.T) {
	rng := detrand.New(0xC0FFEE)
	for round := 0; round < 12; round++ {
		round := round
		t.Run(fmt.Sprintf("round%02d", round), func(t *testing.T) {
			depth := 1 + rng.Intn(4)
			g := graph.New()
			src := g.AddNode(graph.Node{Name: "src"})
			prev := src
			var last graph.NodeID
			for i := 0; i < depth; i++ {
				op, traits := randomOperator(rng)
				// DedupTraits above is sized for capacity ≤128; bound it.
				n := g.AddNode(graph.Node{
					Name:        fmt.Sprintf("op%d", i),
					Op:          op,
					Traits:      traits,
					Speculative: rng.Intn(4) != 0,
					Workers:     1 + rng.Intn(3),
				})
				g.Connect(prev, 0, n, 0)
				prev, last = n, n
			}
			eng := newTestEngine(t, g, Options{Seed: rng.Uint64()})
			if err := eng.Subscribe(last, 0, func(event.Event, bool) {}); err != nil {
				t.Fatal(err)
			}
			s, _ := eng.Source(src)
			events := 50 + rng.Intn(150)
			for i := 0; i < events; i++ {
				if _, err := s.Emit(rng.Uint64()%512, operator.EncodeValue(rng.Uint64()%1000)); err != nil {
					t.Fatal(err)
				}
			}
			drainOrDump(t, eng, 30*time.Second)
			if err := eng.Err(); err != nil {
				t.Fatalf("pipeline error: %v", err)
			}
			if left := eng.inflight.n.Load(); left != 0 {
				t.Fatalf("the in-flight ledger reads %d after the drain, want 0", left)
			}
			for _, node := range g.Nodes() {
				if node.Op == nil {
					continue
				}
				st, err := eng.Stats(node.ID)
				if err != nil {
					t.Fatal(err)
				}
				// A revoked incarnation was dispatched and never commits.
				if st.Committed+st.Cancelled != st.Dispatched {
					t.Fatalf("node %q: committed %d + cancelled %d of %d dispatched",
						node.Name, st.Committed, st.Cancelled, st.Dispatched)
				}
				if st.FinalViolations != 0 {
					t.Fatalf("node %q: %d finality violations", node.Name, st.FinalViolations)
				}
			}
			// Every speculative sighting at the sink must have been finalized
			// or revoked — nothing dangles. The subscriber is not told of a
			// revocation; its link, which keeps each speculative copy until
			// one or the other arrives, is.
			for _, l := range eng.nodes[last].links[0] {
				cl := l.(*callbackLink)
				cl.mu.Lock()
				cl.pending.each(func(id event.ID, _ event.Event) {
					t.Errorf("speculative output %s neither finalized nor revoked", id)
				})
				cl.mu.Unlock()
			}
		})
	}
}
