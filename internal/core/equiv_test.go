package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"streammine/internal/detrand"
	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/operator"
)

// seqClock makes the source ticker hand out 1, 2, 3, …, so no output
// depends on wall time.
type seqClock struct{}

func (seqClock) Now() int64 { return 0 }

// equivOperator draws one deterministic operator; the first of a topology
// is always stateful, so there is a node whose crash loses state.
func equivOperator(rng *detrand.Source, stateful bool) (operator.Operator, operator.Traits) {
	k := rng.Intn(5)
	if stateful && k == 4 {
		k = rng.Intn(4)
	}
	switch k {
	case 0:
		n := 2 + rng.Intn(6)
		return &operator.Classifier{Classes: n}, operator.ClassifierTraits(n)
	case 1:
		return &operator.CountWindowAvg{Window: 1 + rng.Intn(5)}, operator.CountWindowTraits
	case 2:
		return &operator.Dedup{Capacity: 64 + rng.Intn(64)}, operator.DedupTraits(128)
	case 3:
		return &operator.SketchOp{Depth: 3, Width: 128, Seed: rng.Uint64()}, operator.SketchTraits(3, 128)
	default:
		return &operator.Filter{Pred: func(e event.Event) bool { return e.Key%3 != 0 }}, operator.FilterTraits
	}
}

// equivFinal is what the sink's subscriber sees of one final output.
type equivFinal struct {
	key     uint64
	payload string
}

// equivSink counts final deliveries per output ID.
type equivSink struct {
	mu     sync.Mutex
	finals map[event.ID]equivFinal
	extra  []string // repeated finals and speculative deliveries
}

func (s *equivSink) fn(ev event.Event, final bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !final {
		s.extra = append(s.extra, fmt.Sprintf("speculative delivery of %s", ev.ID))
		return
	}
	if _, dup := s.finals[ev.ID]; dup {
		s.extra = append(s.extra, fmt.Sprintf("%s finalized again", ev.ID))
		return
	}
	s.finals[ev.ID] = equivFinal{key: ev.Key, payload: string(ev.Payload)}
}

func (s *equivSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.finals)
}

func (s *equivSink) waitCount(n int) bool {
	deadline := time.Now().Add(20 * time.Second)
	for s.count() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// equivVariant is one way of pushing the same input through the same
// topology.
type equivVariant struct {
	name  string
	flow  *flow.Limits // on every node
	run   int          // events per EmitBatch call; 0 = one Emit per event
	crash bool         // crash and recover the stateful head node mid-stream
}

func equivVariants() []equivVariant {
	limits := func(batch int) *flow.Limits {
		return &flow.Limits{MailboxCap: 256, CreditWindow: 64, BatchSize: batch}
	}
	base := []equivVariant{
		{name: "emit/unconfigured"},
		{name: "emit/batch8", flow: limits(8)},
		{name: "run8/batch8", flow: limits(8), run: 8},
		{name: "run32/batch32", flow: limits(32), run: 32},
	}
	out := base
	for _, v := range base {
		v.name += "/crash"
		v.crash = true
		out = append(out, v)
	}
	return out
}

// runEquivVariant drives one variant of the topology and input that seed
// fixes and returns the sink's finals. want is the number of finals the
// reference run produced (0 for the reference run itself).
func runEquivVariant(t *testing.T, seed uint64, v equivVariant, want int) map[event.ID]equivFinal {
	rng := detrand.New(seed)
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src", Flow: v.flow})
	prev := src
	var head graph.NodeID
	depth := 1 + rng.Intn(4)
	for i := 0; i < depth; i++ {
		op, traits := equivOperator(rng, i == 0)
		node := graph.Node{
			Name: fmt.Sprintf("op%d", i), Op: op, Traits: traits,
			Speculative: true, Workers: 1, Flow: v.flow,
		}
		if traits.Stateful {
			node.CheckpointEvery = 8 + rng.Intn(24)
		}
		id := g.AddNode(node)
		g.Connect(prev, 0, id, 0)
		if i == 0 {
			head = id
		}
		prev = id
	}
	// The sink is a non-speculative node (as in bench/sink.go): it holds
	// each output until its input is final, so the subscriber sees exactly
	// one final delivery per result and ROADMAP's finality bugs (1)-(3),
	// which need a speculative last hop, stay out of the picture.
	sinkNode := g.AddNode(graph.Node{Name: "sink", Op: &operator.Passthrough{}, Workers: 1, Flow: v.flow})
	g.Connect(prev, 0, sinkNode, 0)

	eng := newTestEngine(t, g, Options{Seed: seed, Clock: seqClock{}})
	defer eng.Stop()
	sink := &equivSink{finals: make(map[event.ID]equivFinal)}
	if err := eng.Subscribe(sinkNode, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, err := eng.Source(src)
	if err != nil {
		t.Fatal(err)
	}

	events := 200 + rng.Intn(200)
	items := make([]BatchItem, events)
	for i := range items {
		items[i] = BatchItem{Key: rng.Uint64() % 512, Payload: operator.EncodeValue(rng.Uint64() % 1000)}
	}
	crashAt := events/4 + rng.Intn(events/2) // emitted before the crash
	emit := func(items []BatchItem) {
		for len(items) > 0 {
			if v.run == 0 {
				if _, err := s.Emit(items[0].Key, items[0].Payload); err != nil {
					t.Fatal(err)
				}
				items = items[1:]
				continue
			}
			n := min(v.run, len(items))
			if _, err := s.EmitBatch(items[:n]); err != nil {
				t.Fatal(err)
			}
			items = items[n:]
		}
	}
	if v.crash {
		emit(items[:crashAt])
		// Crash only once everything emitted has been admitted by the node:
		// an event still on the wire into it would be overtaken by the
		// replay of older ones (recovery re-sends the unacknowledged buffer
		// behind whatever is already queued), which is a legal input order
		// for events no decision was logged for, but not the reference's.
		for deadline := time.Now().Add(20 * time.Second); ; {
			st, err := eng.Stats(head)
			if err != nil {
				t.Fatal(err)
			}
			if st.Dispatched >= uint64(crashAt) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node admitted %d of %d events before the crash", st.Dispatched, crashAt)
			}
			time.Sleep(200 * time.Microsecond)
		}
		if err := eng.Crash(head); err != nil {
			t.Fatal(err)
		}
		if err := eng.Recover(head); err != nil {
			t.Fatal(err)
		}
		emit(items[crashAt:])
	} else {
		emit(items)
	}
	if want > 0 && !sink.waitCount(want) {
		t.Fatalf("seed %d %s: stalled at %d of %d finals", seed, v.name, sink.count(), want)
	}
	// Engine.Drain with a deadline: a stalled task must fail the test, not
	// hang it.
	for deadline := time.Now().Add(20 * time.Second); !eng.Quiesced(); {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d %s: not quiescent with %d finals delivered", seed, v.name, sink.count())
		}
		time.Sleep(200 * time.Microsecond)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	for _, e := range sink.extra {
		t.Error(e)
	}
	return sink.finals
}

// TestBatchSizeEquivalence is the machine that judges the engine's one
// admit / commit / retire path: for seeded linear topologies of
// deterministic operators, the set of (ID, key, payload) finals at the sink
// must not depend on how the input was cut into runs, on the batch size, or
// on a crash and recovery of the stateful head node (after the rollback the
// node's outputs must be exactly the failure-free ones: Falkirk Wheel,
// arXiv 1503.08877), and every ID must be finalized exactly once.
func TestBatchSizeEquivalence(t *testing.T) {
	seeds := []uint64{1, 2, 3, 5, 8, 13, 21, 34}
	if testing.Short() {
		seeds = seeds[:3]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			variants := equivVariants()
			ref := runEquivVariant(t, seed, variants[0], 0)
			if len(ref) == 0 {
				t.Fatalf("seed %d: reference run produced no finals", seed)
			}
			for _, v := range variants[1:] {
				got := runEquivVariant(t, seed, v, len(ref))
				for id, want := range ref {
					if g, ok := got[id]; !ok {
						t.Errorf("seed %d %s: %s never finalized", seed, v.name, id)
					} else if g != want {
						t.Errorf("seed %d %s: %s finalized as %v, want %v", seed, v.name, id, g, want)
					}
				}
				for id := range got {
					if _, ok := ref[id]; !ok {
						t.Errorf("seed %d %s: spurious final %s", seed, v.name, id)
					}
				}
				if t.Failed() {
					t.Fatalf("seed %d: variant %s differs from %s", seed, v.name, variants[0].name)
				}
			}
		})
	}
}
