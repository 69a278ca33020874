package core

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/stm"
	"streammine/internal/storage"
)

// What an input's value asks finalityOp to do before it emits.
const (
	takesDecision uint64 = 1 << iota // draw a logged random number
	readsState                       // read and bump the state word of the event's key
)

// finalityOp is the scripted operator of the finality-rule tests
// (DESIGN.md §6.1). An attempt that reads state first waits at its key's
// gate, if the test armed one, so the test decides which task is the commit
// head when a younger one publishes.
type finalityOp struct {
	words   stm.Addr
	gates   map[uint64]chan struct{} // by key; filled before the first event
	entered chan uint64              // the key of each attempt reaching a gate
}

func (o *finalityOp) Init(ctx operator.InitContext) (err error) {
	o.words, err = ctx.Memory().Alloc(finalityWords)
	return err
}

func (o *finalityOp) Terminate() error { return nil }

func (o *finalityOp) Process(ctx operator.Context, e event.Event) error {
	v := operator.DecodeValue(e.Payload)
	if v&takesDecision != 0 {
		if _, err := ctx.Random(); err != nil {
			return err
		}
	}
	if v&readsState == 0 {
		return ctx.Emit(e.Key, e.Payload)
	}
	if g := o.gates[e.Key]; g != nil {
		o.entered <- e.Key
		<-g
	}
	word := o.words + stm.Addr(e.Key)
	cur, err := ctx.Tx().Read(word)
	if err != nil {
		return err
	}
	if err := ctx.Tx().Write(word, cur+1); err != nil {
		return err
	}
	return ctx.Emit(e.Key, operator.EncodeValue(cur+1))
}

const finalityWords = 4

// sighting is one subscriber call.
type sighting struct {
	ev    event.Event
	final bool
}

// finalityRig is src -> op (speculative, finalityOp) with a subscriber on
// op's port that queues every sighting for the test to take in order.
type finalityRig struct {
	t       *testing.T
	eng     *Engine
	op      graph.NodeID
	src     *SourceHandle
	seen    chan sighting
	entered <-chan uint64
	open    map[uint64]func() // by key: lets the attempts at that gate go on
}

func newFinalityRig(t *testing.T, workers int, pool *storage.Pool, gated ...uint64) *finalityRig {
	op := &finalityOp{gates: make(map[uint64]chan struct{}), entered: make(chan uint64, 8)}
	r := &finalityRig{t: t, seen: make(chan sighting, 16), entered: op.entered, open: make(map[uint64]func())}
	for _, key := range gated {
		gate := make(chan struct{})
		op.gates[key] = gate
		r.open[key] = sync.OnceFunc(func() { close(gate) })
	}
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	// Not Stateful: admission then logs no input order, and an output is
	// speculative for the reason the test scripts and no other.
	id := g.AddNode(graph.Node{
		Name: "op", Op: op, Traits: operator.Traits{StateWords: finalityWords},
		Speculative: true, Workers: workers,
	})
	g.Connect(src, 0, id, 0)
	r.op = id
	r.eng = newTestEngine(t, g, Options{Seed: 9, Pool: pool})
	t.Cleanup(func() { // before the engine stops: it waits for its workers
		for _, open := range r.open {
			open()
		}
	})
	if err := r.eng.Subscribe(id, 0, func(ev event.Event, final bool) {
		r.seen <- sighting{ev: ev.Clone(), final: final}
	}); err != nil {
		t.Fatal(err)
	}
	var err error
	if r.src, err = r.eng.Source(src); err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *finalityRig) emit(key, value uint64) {
	r.t.Helper()
	if _, err := r.src.Emit(key, operator.EncodeValue(value)); err != nil {
		r.t.Fatal(err)
	}
}

// next takes the next sighting and checks whose output it is and how it
// was sent.
func (r *finalityRig) next(key uint64, final bool) sighting {
	r.t.Helper()
	select {
	case s := <-r.seen:
		if s.ev.Key != key || s.final != final {
			r.t.Fatalf("sighting of key %d final=%t, want key %d final=%t", s.ev.Key, s.final, key, final)
		}
		return s
	case <-time.After(10 * time.Second):
		r.t.Fatalf("no sighting of key %d (final=%t)", key, final)
		return sighting{}
	}
}

func (r *finalityRig) stats() NodeStats {
	r.t.Helper()
	st, err := r.eng.Stats(r.op)
	if err != nil {
		r.t.Fatal(err)
	}
	return st
}

// settle drains the engine and checks that nothing more was delivered and
// no final was ever replaced.
func (r *finalityRig) settle(committed uint64) {
	r.t.Helper()
	drainOrDump(r.t, r.eng, 10*time.Second)
	if err := r.eng.Err(); err != nil {
		r.t.Fatal(err)
	}
	select {
	case s := <-r.seen:
		r.t.Fatalf("extra sighting of key %d final=%t", s.ev.Key, s.final)
	default:
	}
	if st := r.stats(); st.Committed != committed || st.FinalViolations != 0 {
		r.t.Fatalf("committed %d (want %d), %d finality violations", st.Committed, committed, st.FinalViolations)
	}
}

// TestStatelessFinalBehindOpenLogger: a task that read no state, whose
// input is final and which logged nothing, is sent final while an older task
// is still waiting for its decision to reach the disk — the paper's
// out-of-order finality (§3.1), kept where nothing can take it back.
func TestStatelessFinalBehindOpenLogger(t *testing.T) {
	var held atomic.Bool
	held.Store(true)
	release := make(chan struct{})
	pool := storage.NewPool([]storage.Disk{holdDisk{storage.NewMemDisk(), &held, release}})
	t.Cleanup(func() { pool.Close() })
	r := newFinalityRig(t, 1, pool)
	letGo := sync.OnceFunc(func() { close(release) })
	t.Cleanup(letGo) // registered last: a failing test frees the writer before it stops anything

	r.emit(1, takesDecision)
	logged := r.next(1, false) // its decision is not stable: speculative
	r.emit(2, 0)
	r.next(2, true) // no speculative sighting came first
	if st := r.stats(); st.FinalSent != 1 || st.SpecSent != 1 || st.Committed != 0 {
		t.Fatalf("behind the open logger: %d sent final, %d speculative, %d committed; want 1, 1, 0",
			st.FinalSent, st.SpecSent, st.Committed)
	}

	letGo()
	if fin := r.next(1, true); !bytes.Equal(fin.ev.Payload, logged.ev.Payload) || fin.ev.Version != logged.ev.Version {
		t.Fatalf("the logger's output changed between speculative and final")
	}
	r.settle(2)
}

// TestStateReaderBehindHeadIsSpeculative: a task that read operator state
// while an older task is uncommitted is sent speculative — the older one
// can still write what it read — and is finalized exactly once, unchanged,
// when it commits. From the commit head the same operator sends final.
func TestStateReaderBehindHeadIsSpeculative(t *testing.T) {
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	t.Cleanup(func() { pool.Close() })
	r := newFinalityRig(t, 2, pool, 0)

	r.emit(0, readsState)
	if key := <-r.entered; key != 0 {
		t.Fatalf("attempt of key %d at the gate, want 0", key)
	}
	r.emit(1, readsState) // its own word: the head's write will not touch it
	spec := r.next(1, false)
	if st := r.stats(); st.FinalSent != 0 || st.SpecSent != 1 {
		t.Fatalf("behind the head: %d sent final, %d speculative; want 0, 1", st.FinalSent, st.SpecSent)
	}

	r.open[0]()
	r.next(0, true) // the head reads state and still leaves final
	if fin := r.next(1, true); !bytes.Equal(fin.ev.Payload, spec.ev.Payload) || fin.ev.Version != spec.ev.Version {
		t.Fatalf("the reader's output changed between speculative and final")
	}
	r.settle(2)

	r.emit(1, readsState)
	if s := r.next(1, true); operator.DecodeValue(s.ev.Payload) != 2 {
		t.Fatalf("second bump of word 1 reads %d, want 2", operator.DecodeValue(s.ev.Payload))
	}
	r.settle(3)
	if st := r.stats(); st.FinalSent != 2 || st.SpecSent != 1 {
		t.Fatalf("in all: %d sent final, %d speculative; want 2, 1", st.FinalSent, st.SpecSent)
	}
}
