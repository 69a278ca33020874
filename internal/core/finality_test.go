package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/stm"
	"streammine/internal/storage"
	"streammine/internal/transport"
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
	pool := storage.NewPool([]storage.Disk{holdDisk{new(memDisk), &held, release}})
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

// sentLog is a link that hands each message on and notes what it was: the
// frame's kind and the version it carries.
type sentLog struct {
	inner link
	got   []string
}

func (l *sentLog) deliver(m transport.Message) {
	ver := m.Version
	if m.Type == transport.MsgEvent {
		ver = m.Event.Version
	}
	l.got = append(l.got, fmt.Sprintf("%v %d", m.Type, ver))
	l.inner.deliver(m)
}

func (l *sentLog) buffered() bool { return l.inner.buffered() }

// TestStaleSendNeverFollowsNextAttempt: a task's first attempt sends its
// output at version 0; a replacement of its input, with other content and
// final, rolls the task back; the second attempt sends its output at
// version 1 and commits, which finalizes it. Version 0 must not reach
// downstream after version 1 — there it would read as a content change and
// leave the output speculative at version 0 for good. A worker used to send
// its own outputs, so a send of the first attempt could be overtaken by the
// second's; only the dispatcher sends now, when it takes the run back, so
// the order is the dispatcher's and the test checks it frame by frame. The
// test drives the node: dispatcher, worker and committer.
func TestStaleSendNeverFollowsNextAttempt(t *testing.T) {
	n, down := classifierHop(t, 4)
	sent := &sentLog{inner: n.links[0][0]}
	n.links[0][0] = sent
	in := event.ID{Source: 1, Seq: 1}
	evAt := func(key uint64, spec bool) transport.Message {
		return transport.Message{Type: transport.MsgEvent, Event: event.Event{
			ID: in, Key: key, Payload: operator.EncodeValue(key), Speculative: spec,
		}}
	}
	var run []event.Event
	n.mailbox.Push(evAt(1, true))
	run, _ = popDispatch(t, n, run)
	waitLogged(t, n.open.at(0))
	qt, _ := n.execQ.Pop()
	ctx := new(procCtx)
	n.execute(qt, ctx)
	n.endRun(ctx)
	if len(sent.got) != 0 {
		t.Fatalf("the worker sent %v before its run was taken back", sent.got)
	}
	run, _ = popDispatch(t, n, run) // the hand-back sends version 0
	if want := []string{"EVENT 0"}; !slices.Equal(sent.got, want) {
		t.Fatalf("the hand-back sent %v, want %v", sent.got, want)
	}

	n.mailbox.Push(evAt(2, false))  // other content, final: the task rolls back
	run, _ = popDispatch(t, n, run) // the replacement re-queues the task
	run, _ = popDispatch(t, n, run) // its abort's re-execution request, stale
	qt, _ = n.execQ.Pop()
	n.runTask(qt, new(procCtx))
	for turns := 0; n.cCommitted.Load() == 0; turns++ {
		if turns == 100 {
			t.Fatal("the second attempt never committed")
		}
		n.commitBatch(maxRun)
	}
	if want := []string{"EVENT 0", "EVENT 1", "FINALIZE 1"}; !slices.Equal(sent.got, want) {
		t.Fatalf("sent %v, want %v", sent.got, want)
	}

	for down.mailbox.Len() > 0 {
		run, _ = popDispatch(t, down, run)
	}
	out, ok := down.tasks.get(outputID(n.opID, in, 0))
	if !ok {
		t.Fatal("downstream holds no task for the output")
	}
	if !out.evFinal || out.ver != 1 {
		t.Fatalf("downstream holds the output at version %d, final %t; want final at version 1", out.ver, out.evFinal)
	}
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

// TestHeadAfterBeginIsSpeculative: an attempt that began behind the commit
// head can be the head by the time it is published, with a read gone stale:
// an older task wrote the word it read and has committed since. Its output
// must leave speculative, for the attempt fails validation at commit and its
// re-execution changes it (ROADMAP bug (7)); headship is decided at begin. A
// worker's run widens the window: it publishes what it executed at its end.
func TestHeadAfterBeginIsSpeculative(t *testing.T) {
	n, down := classifierHop(t, 1) // one class: both tasks bump one word
	n.admitRun(0, []event.Event{
		{ID: event.ID{Source: 0, Seq: 1}, Key: 0, Payload: operator.EncodeValue(0)},
		{ID: event.ID{Source: 0, Seq: 2}, Key: 0, Payload: operator.EncodeValue(1)},
	})
	older, _ := n.execQ.Pop()
	younger, _ := n.execQ.Pop()
	waitLogged(t, older)
	waitLogged(t, younger)

	run := new(procCtx)
	n.execute(younger, run)        // reads the word; the run goes on
	n.runTask(older, new(procCtx)) // writes it
	for turns := 0; n.cCommitted.Load() == 0; turns++ {
		if turns == 100 {
			t.Fatal("the older task never committed")
		}
		n.commitBatch(maxRun)
	}
	n.endRun(run) // the younger task is the head now
	n.installRuns()
	_, evs, _ := down.mailbox.Pop(nil)
	if len(evs) != 2 || evs[1].ID != outputID(n.opID, younger.ev.ID, 0) {
		t.Fatalf("downstream holds %d events, want the older task's output and the younger's", len(evs))
	}
	if !evs[1].Speculative {
		t.Error("the stale attempt's output left final")
	}
	younger.tx.Abort() // as its validation at commit would
	re, _, _ := popWork(n.mailbox, nil)
	n.handleReexec(re.reexec)
	tk, _ := n.execQ.Pop()
	n.runTask(tk, run)
	if v := n.finalViolations.Load(); v != 0 {
		t.Errorf("%d finality violations after the re-execution", v)
	}
}
