package core

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/stm"
	"streammine/internal/storage"
	"streammine/internal/transport"
)

// gatePoint names a place an attempt can be held at: before the operator
// touches state, or (mid) between its first and its later outputs.
type gatePoint struct {
	seq event.Seq
	mid bool
}

// gateVisit is what an attempt reports when it reaches an armed gate.
type gateVisit struct {
	serial uint64
	tx     *stm.Tx
}

type gate struct {
	entered chan gateVisit
	release chan struct{}
}

// reuseOp adds each event's value to one state word and emits outputs that
// depend on what the attempt saw: the running sum, and the attempt's serial
// number. It emits one output on port 0; a second, on port 1, for an odd
// value; a third, on port 0 again, for a value of 3 mod 4.
type reuseOp struct {
	t      *testing.T
	word   stm.Addr
	serial atomic.Uint64

	mu    sync.Mutex
	gates map[gatePoint]*gate // armed by the test, consumed by one attempt
	busy  map[event.Seq]bool  // an attempt of this input is inside Process
}

func (o *reuseOp) Init(ctx operator.InitContext) (err error) {
	o.word, err = ctx.Memory().Alloc(1)
	return err
}

func (o *reuseOp) Terminate() error { return nil }

func (o *reuseOp) arm(p gatePoint) *gate {
	g := &gate{entered: make(chan gateVisit, 1), release: make(chan struct{})}
	o.mu.Lock()
	o.gates[p] = g
	o.mu.Unlock()
	return g
}

func (o *reuseOp) pass(p gatePoint, v gateVisit) {
	o.mu.Lock()
	g := o.gates[p]
	delete(o.gates, p)
	o.mu.Unlock()
	if g != nil {
		g.entered <- v
		<-g.release
	}
}

func (o *reuseOp) Process(ctx operator.Context, e event.Event) error {
	seq := e.ID.Seq
	o.mu.Lock()
	if o.busy[seq] {
		o.t.Errorf("two attempts of input %d are in flight", seq)
	}
	o.busy[seq] = true
	o.mu.Unlock()
	defer func() {
		o.mu.Lock()
		delete(o.busy, seq)
		o.mu.Unlock()
	}()

	tx := ctx.Tx()
	visit := gateVisit{serial: o.serial.Add(1), tx: tx}
	v := operator.DecodeValue(e.Payload)
	o.pass(gatePoint{seq: seq}, visit)
	cur, err := tx.Read(o.word)
	if err != nil {
		return err
	}
	sum := cur + v
	if err := tx.Write(o.word, sum); err != nil {
		return err
	}
	if err := ctx.EmitTo(0, e.Key, operator.EncodePair(sum, visit.serial)); err != nil {
		return err
	}
	o.pass(gatePoint{seq: seq, mid: true}, visit)
	if v%2 == 1 {
		if err := ctx.EmitTo(1, e.Key, operator.EncodePair(sum+1, visit.serial)); err != nil {
			return err
		}
	}
	if v%4 == 3 {
		return ctx.EmitTo(0, e.Key, operator.EncodePair(sum+2, visit.serial))
	}
	return nil
}

// reuseRig is src -> op (two ports, speculative) -> one non-speculative sink
// node per port. The sinks' subscribers collect finals; two more
// subscribers, directly on op's ports, see every version op ever publishes.
type reuseRig struct {
	t     *testing.T
	eng   *Engine
	op    *reuseOp
	n     *node // op's
	sinks [2]*node

	mu        sync.Mutex
	finals    map[event.ID]uint64   // output ID -> the final's value
	published map[event.ID][]uint64 // output ID -> serial of each version published
}

func newReuseRig(t *testing.T, workers int) *reuseRig {
	r := &reuseRig{
		t:         t,
		op:        &reuseOp{t: t, gates: make(map[gatePoint]*gate), busy: make(map[event.Seq]bool)},
		finals:    make(map[event.ID]uint64),
		published: make(map[event.ID][]uint64),
	}
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	op := g.AddNode(graph.Node{
		Name: "op", Op: r.op, Traits: operator.Traits{Stateful: true, Deterministic: true, StateWords: 1},
		Speculative: true, Workers: workers, OutputPorts: 2,
	})
	g.Connect(src, 0, op, 0)
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	t.Cleanup(func() { pool.Close() })
	sinks := make([]graph.NodeID, 2)
	for port := range sinks {
		sinks[port] = g.AddNode(graph.Node{Name: "sink" + string(rune('0'+port)), Op: &operator.Passthrough{}})
		g.Connect(op, port, sinks[port], 0)
	}
	eng, err := New(g, Options{Seed: 3, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	for port, sink := range sinks {
		if err := eng.Subscribe(op, port, r.onPublish); err != nil {
			t.Fatal(err)
		}
		if err := eng.Subscribe(sink, 0, r.onFinal); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)
	r.eng, r.n = eng, eng.nodes[op]
	r.sinks = [2]*node{eng.nodes[sinks[0]], eng.nodes[sinks[1]]}
	return r
}

func (r *reuseRig) onPublish(ev event.Event, final bool) {
	_, serial := operator.DecodePair(ev.Payload)
	r.mu.Lock()
	r.published[ev.ID] = append(r.published[ev.ID], serial)
	r.mu.Unlock()
}

// onFinal records a sink's output, whose ID derives from op's output ID;
// the sinks are pass-through, so key and payload are op's.
func (r *reuseRig) onFinal(ev event.Event, final bool) {
	sum, _ := operator.DecodePair(ev.Payload)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.finals[ev.ID]; dup || !final {
		r.t.Errorf("sink output %s: final=%t duplicate=%t", ev.ID, final, dup)
	}
	r.finals[ev.ID] = sum
}

// send delivers version ver of input seq to op, carrying value v.
func (r *reuseRig) send(seq event.Seq, ver event.Version, v uint64, spec bool) {
	r.n.mailbox.Push(transport.Message{Type: transport.MsgEvent, Event: event.Event{
		ID: event.ID{Source: 0, Seq: seq}, Timestamp: int64(seq), Version: ver, Speculative: spec,
		Key: uint64(seq), Payload: operator.EncodeValue(v),
	}})
}

// await polls cond, which reads engine state under the engine's own locks.
func (r *reuseRig) await(what string, cond func() bool) {
	r.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			for _, n := range []*node{r.n, r.sinks[0], r.sinks[1]} {
				r.t.Logf("%s: %d open, %d queued, %d in the mailbox, %d committed",
					n.spec.Name, n.openCount(), n.execQ.Len(), n.mailbox.Len(), n.cCommitted.Load())
			}
			r.t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

func (r *reuseRig) awaitFinals(want int) {
	r.t.Helper()
	r.await("finals", func() bool {
		r.mu.Lock()
		defer r.mu.Unlock()
		return len(r.finals) >= want
	})
}

// sentState is what op's task for one input has sent, read under its lock.
type sentState struct {
	sent     int           // len(t.sent)
	buffered int           // how many of the task's output IDs the output buffer holds
	inline   bool          // the first sent record is the task's own
	version  event.Version // of the first sent record
}

// taskOf returns op's live task for one input.
func (r *reuseRig) taskOf(seq event.Seq) *task {
	r.n.mu.Lock()
	defer r.n.mu.Unlock()
	tk, _ := r.n.tasks.get(event.ID{Source: 0, Seq: seq})
	return tk
}

func (r *reuseRig) sentState(seq event.Seq) (st sentState) {
	tk := r.taskOf(seq)
	if tk == nil {
		return st
	}
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if !tk.published {
		return st
	}
	st.sent = len(tk.sent)
	if st.sent > 0 {
		st.inline, st.version = tk.sent[0] == &tk.rec0, tk.sent[0].version
	}
	r.n.mu.Lock()
	for k := 0; k < 3; k++ {
		if _, ok := r.n.outBuf.get(outputID(r.n.opID, tk.ev.ID, k)); ok {
			st.buffered++
		}
	}
	r.n.mu.Unlock()
	return st
}

// TestAttemptScratchReuseSafety drives a two-worker node through attempts
// that are aborted while they execute — by a content-changing replacement,
// and by an older event's conflicting write — and through a task whose
// outputs spill past the inline slot, shrink under a replacement and grow
// again. The workers reuse their attempt context and the task holds its
// first output inline, so the test checks what that could break: every
// final equals the single-threaded reference, no output of an attempt
// aborted mid-execution is ever published, and sent list and output buffer
// agree at every step.
func TestAttemptScratchReuseSafety(t *testing.T) {
	// The final version of each input, in arrival order: the reference.
	values := []uint64{2, 6, 5, 1, 2}
	ref := newReuseRig(t, 1)
	for i, v := range values {
		ref.send(event.Seq(i+1), 0, v, false)
	}
	ref.awaitFinals(7) // one per input, two more on port 1 for the odd values
	ref.eng.Drain()

	r := newReuseRig(t, 2)
	doomed := make(map[uint64]bool)
	r.send(1, 0, 2, false)
	r.awaitFinals(1)

	// Replaced while executing: the attempt has emitted one of its three
	// outputs when its input changes under it.
	g := r.op.arm(gatePoint{seq: 2, mid: true})
	r.send(2, 0, 3, true)
	held := <-g.entered
	r.send(2, 1, 6, false)
	r.await("the replaced attempt's abort", func() bool { return held.tx.Status() == stm.StatusAborted })
	doomed[held.serial] = true
	close(g.release)
	r.awaitFinals(2)

	// Spilled, revoked, grown again: three outputs on two ports, then one,
	// then two.
	r.send(3, 0, 7, true)
	r.await("three outputs sent", func() bool {
		return r.sentState(3) == sentState{sent: 3, buffered: 3, inline: true}
	})
	// The sinks must have all three before the replacement exists: the
	// worker delivers after it has released the task, and a REVOKE from the
	// next attempt must not meet an EVENT still on its way.
	r.await("three outputs delivered", func() bool {
		return r.sinks[0].cDispatched.Load() == 4 && r.sinks[1].cDispatched.Load() == 1
	})
	r.send(3, 1, 4, true)
	r.await("two outputs revoked", func() bool {
		return r.sentState(3) == sentState{sent: 1, buffered: 1, inline: true, version: 1}
	})
	// Likewise the port-1 sink must be done with the revoked output before
	// the same output ID comes back.
	r.await("the revoke downstream", func() bool { return r.sinks[1].openCount() == 0 })
	r.send(3, 2, 5, false)
	r.awaitFinals(4)

	// Killed while executing: input 4 is held before it touches state,
	// input 5 after it wrote it; 4's write then finds the younger owner.
	g4 := r.op.arm(gatePoint{seq: 4})
	g5 := r.op.arm(gatePoint{seq: 5, mid: true})
	r.send(4, 0, 1, false)
	<-g4.entered
	r.send(5, 0, 2, false)
	held = <-g5.entered
	// 5's re-execution is held until 4 has committed: started earlier, it
	// could read around 4's write and go out final (ROADMAP open item 1,
	// bug 7), which is not what this test is about.
	again := r.op.arm(gatePoint{seq: 5})
	close(g4.release)
	r.await("the younger attempt's kill", func() bool { return held.tx.Status() != stm.StatusActive })
	doomed[held.serial] = true
	close(g5.release)
	<-again.entered
	r.awaitFinals(6)
	close(again.release)
	r.awaitFinals(7)
	r.eng.Drain()

	if err := r.eng.Err(); err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.finals) != len(ref.finals) {
		t.Errorf("%d finals, reference has %d", len(r.finals), len(ref.finals))
	}
	for id, want := range ref.finals {
		if got, ok := r.finals[id]; !ok || got != want {
			t.Errorf("final %s = %d (present %t), reference %d", id, got, ok, want)
		}
	}
	for id, serials := range r.published {
		for _, s := range serials {
			if doomed[s] {
				t.Errorf("output %s of aborted attempt %d was published", id, s)
			}
		}
	}
	r.mu.Unlock()
	r.await("every output record's ACK", func() bool { return r.n.outBufLen() == 0 })
	r.mu.Lock()
}

// TestReexecutionBuysItsOwnTx: a task's first attempt runs in the
// transaction its run's block holds for it, and no later attempt does. Input
// 1 is executed three times — its first attempt is open, and read from by
// input 2, when a replacement aborts it; its second is aborted while it
// executes — and everyone who kept a pointer to a finished attempt (the
// gates here, as a reader's read entry would) still finds that attempt
// behind it, aborted, while the next one is open.
func TestReexecutionBuysItsOwnTx(t *testing.T) {
	r := newReuseRig(t, 2)
	visit := func(g *gate) *stm.Tx { return (<-g.entered).tx }

	g := r.op.arm(gatePoint{seq: 1})
	r.send(1, 0, 2, true)
	first := visit(g)
	tk1 := r.taskOf(1)
	firstID := first.ID()
	close(g.release)
	r.await("attempt 1 published", func() bool { return r.sentState(1).sent == 1 })

	// Input 2 reads attempt 1's buffered sum and is held with that read in
	// its read set.
	gr := r.op.arm(gatePoint{seq: 2, mid: true})
	r.send(2, 0, 4, false)
	reader := visit(gr)
	tk2 := r.taskOf(2)
	if first != &tk1.tx0 || reader != &tk2.tx0 {
		t.Fatalf("first attempts ran in %p and %p, want the tasks' own %p and %p", first, reader, &tk1.tx0, &tk2.tx0)
	}

	g = r.op.arm(gatePoint{seq: 1})
	r.send(1, 1, 6, true) // aborts attempt 1, and input 2's by cascade
	second := visit(g)
	if second == first || first.Status() != stm.StatusAborted || first.ID() != firstID || second.ID() <= reader.ID() {
		t.Fatalf("attempt 2 open in %p (id %d): attempt 1 is %p, %s, id %d (was %d)",
			second, second.ID(), first, first.Status(), first.ID(), firstID)
	}
	if st := reader.Status(); st != stm.StatusKilled {
		t.Fatalf("input 2's attempt is %s after its source aborted, want killed", st)
	}
	gr2 := r.op.arm(gatePoint{seq: 2}) // holds input 2's next attempt until input 1 has committed
	close(gr.release)
	reader2 := visit(gr2)

	g3 := r.op.arm(gatePoint{seq: 1})
	r.send(1, 2, 8, false) // aborts attempt 2 under the worker executing it
	r.await("attempt 2's abort", func() bool { return second.Status() == stm.StatusAborted })
	close(g.release)
	third := visit(g3)
	tk1.mu.Lock()
	attempts, current := tk1.attempts, tk1.tx
	tk1.mu.Unlock()
	if third == first || third == second || current != third || attempts != 3 {
		t.Fatalf("attempt %d runs in %p (the task says %p) after %p and %p", attempts, third, current, first, second)
	}
	if reader2 == reader || reader.Status() != stm.StatusAborted || first.Status() != stm.StatusAborted {
		t.Fatalf("input 2 re-executes in %p after %p (%s); input 1's attempt 1 is %s",
			reader2, reader, reader.Status(), first.Status())
	}
	close(g3.release)
	r.awaitFinals(1)
	close(gr2.release)
	r.awaitFinals(2)
	r.eng.Drain()
	if err := r.eng.Err(); err != nil {
		t.Fatal(err)
	}
	if third.Status() != stm.StatusCommitted || reader2.Status() != stm.StatusCommitted {
		t.Errorf("the last attempts ended %s and %s, want committed", third.Status(), reader2.Status())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var sums []uint64
	for _, sum := range r.finals {
		sums = append(sums, sum)
	}
	slices.Sort(sums)
	if !slices.Equal(sums, []uint64{8, 12}) {
		t.Errorf("finals %v, want the sums 8 and 12", sums)
	}
}

// TestReexecLeavesExecutingTaskAlone pins what makes worker-owned scratch
// safe: a task has at most one attempt in flight. A re-execution request
// for a task that is still executing is dropped — the executing worker
// sees the abort itself and re-queues the task when it is done with it.
func TestReexecLeavesExecutingTaskAlone(t *testing.T) {
	eng, _, pool, _ := buildBatchPipeline(t, nil, nil)
	defer pool.Close()
	n := eng.nodes[1]
	tx := n.mem.Begin(1)
	tk := &task{n: n, seq: 1, state: taskExecuting, tx: tx, attempts: 1}
	tx.OnAbort(tk)
	tx.Abort()
	it, ok := n.mailbox.Pop()
	if !ok || it.reexec.t != tk || it.reexec.tx != tx {
		t.Fatalf("abort hook queued %+v, want the task's re-execution", it.reexec)
	}
	n.handleReexec(it.reexec)
	if tk.state != taskExecuting || tk.tx != tx || n.execQ.Len() != 0 {
		t.Fatalf("executing task was re-queued: state %v, %d queued", tk.state, n.execQ.Len())
	}
	// Once the worker has let go of it, the same request re-queues it.
	tk.state = taskQueued
	n.handleReexec(it.reexec)
	if tk.tx != nil || n.execQ.Len() != 1 {
		t.Fatalf("released task not re-queued: tx %v, %d queued", tk.tx, n.execQ.Len())
	}
}

// TestReplacementClosesOpenTask: a replacement that changes an open task's
// input and makes it final must not leave the task committable with what it
// executed for the old content, not even until the abort it triggers has
// re-queued the task.
func TestReplacementClosesOpenTask(t *testing.T) {
	eng, _, pool, _ := buildBatchPipeline(t, nil, nil)
	defer pool.Close()
	n := eng.nodes[1]
	id := event.ID{Source: 0, Seq: 1}
	tx := n.mem.Begin(1)
	if err := tx.Complete(); err != nil {
		t.Fatal(err)
	}
	tk := &task{n: n, seq: 1, state: taskOpen, published: true, tx: tx,
		ev: event.Event{ID: id, Speculative: true, Payload: operator.EncodeValue(1)}}
	tx.OnAbort(tk)
	n.applyReplacement(tk, event.Event{ID: id, Version: 1, Payload: operator.EncodeValue(2)})
	if !tk.evFinal || tk.state == taskOpen {
		t.Fatalf("after the replacement: evFinal %t, state %v; want final and no longer open", tk.evFinal, tk.state)
	}
	// The abort's re-execution request then re-queues it as usual.
	it, ok := n.mailbox.Pop()
	if !ok || it.reexec.t != tk {
		t.Fatalf("the replacement queued %+v, want the task's re-execution", it.reexec)
	}
	n.handleReexec(it.reexec)
	if tk.tx != nil || tk.published || n.execQ.Len() != 1 {
		t.Fatalf("task not re-queued: tx %v, published %t, %d queued", tk.tx, tk.published, n.execQ.Len())
	}
}

// TestPayloadBytesAreHandedOutOnce: a payload belongs to the output it was
// emitted as. Task A's, published and in a downstream mailbox, is
// byte-identical — and overlaps none of theirs — after the same worker has
// run and aborted a thousand attempts of task B, each of which took, wrote
// and emitted a payload of its own.
func TestPayloadBytesAreHandedOutOnce(t *testing.T) {
	n, down := classifierHop(t, 2)
	ctx := new(procCtx)
	span := func(p []byte) (lo, hi uintptr) {
		lo = uintptr(unsafe.Pointer(&p[0]))
		return lo, lo + uintptr(len(p))
	}
	a := &task{n: n, seq: 1, state: taskQueued, evFinal: true, ev: event.Event{ID: event.ID{Seq: 1}, Key: 0}}
	n.runTask(a, ctx)
	it, _ := down.mailbox.Pop()
	published := it.msg.Event.Payload
	want := operator.EncodePair(0, 1)
	if !bytes.Equal(published, want) {
		t.Fatalf("task A published %x, want %x", published, want)
	}
	lo, hi := span(published)

	b := &task{n: n, seq: 2, state: taskQueued, ev: event.Event{ID: event.ID{Seq: 2}, Key: 1, Speculative: true}}
	seen := make(map[uintptr]bool)
	for attempt := 1; attempt <= 1000; attempt++ {
		n.runTask(b, ctx)
		if b.state != taskOpen || b.attempts != attempt || len(b.outs) != 1 {
			t.Fatalf("attempt %d of task B: state %v after %d attempts, %d outputs", attempt, b.state, b.attempts, len(b.outs))
		}
		blo, bhi := span(b.outs[0].payload)
		if seen[blo] || blo < hi && lo < bhi {
			t.Fatalf("attempt %d of task B was handed bytes that were handed out before", attempt)
		}
		seen[blo] = true
		b.tx.Abort() // queues the re-execution
		re, _ := n.mailbox.Pop()
		n.handleReexec(re.reexec)
		if tk, _ := n.execQ.Pop(); tk != b {
			t.Fatalf("attempt %d's abort did not re-queue task B", attempt)
		}
	}
	if !bytes.Equal(published, want) {
		t.Errorf("task A's payload reads %x after task B's attempts, published as %x", published, want)
	}
}

// TestReexecutionLeavesSentVersionAlone: an attempt whose output changed
// builds the new version in bytes of its own. The version already in the
// downstream mailbox keeps the bytes it was sent with, and the two frames
// share none.
func TestReexecutionLeavesSentVersionAlone(t *testing.T) {
	n, down := classifierHop(t, 4)
	ctx := new(procCtx)
	id := event.ID{Source: 0, Seq: 1}
	run := func() {
		tk, _ := n.execQ.Pop()
		n.runTask(tk, ctx)
	}
	n.handleMessage(transport.Message{Type: transport.MsgEvent, Event: event.Event{ID: id, Key: 1, Speculative: true}})
	run()
	// A replacement with another key: another class, another output.
	n.handleMessage(transport.Message{Type: transport.MsgEvent, Event: event.Event{ID: id, Version: 1, Key: 2, Speculative: true}})
	re, _ := n.mailbox.Pop()
	n.handleReexec(re.reexec)
	run()

	if got := down.mailbox.Len(); got != 2 {
		t.Fatalf("%d frames downstream, want both versions", got)
	}
	first, _ := down.mailbox.Pop()
	second, _ := down.mailbox.Pop()
	v0, v1 := first.msg.Event, second.msg.Event
	if v0.ID != v1.ID || v0.Version != 0 || v1.Version != 1 {
		t.Fatalf("downstream holds %s v%d and %s v%d, want versions 0 and 1 of one output", v0.ID, v0.Version, v1.ID, v1.Version)
	}
	if want := operator.EncodePair(1, 1); !bytes.Equal(v0.Payload, want) {
		t.Errorf("version 0 reads %x after the re-execution, sent as %x", v0.Payload, want)
	}
	if want := operator.EncodePair(2, 1); !bytes.Equal(v1.Payload, want) {
		t.Errorf("version 1 reads %x, want %x", v1.Payload, want)
	}
	if &v0.Payload[0] == &v1.Payload[0] {
		t.Error("both versions are in the same bytes")
	}
}

// TestQueuedFinalizeRunIsOwned: the FINALIZE run of a commit group belongs
// to its frame once the committer has handed it over. Still queued on a
// credit-gated link (whose sender this test never starts) while the
// committer retires a hundred more groups through the same scratch and the
// same slab, it names the outputs of its own group and no other.
func TestQueuedFinalizeRunIsOwned(t *testing.T) {
	eng, _, pool, _ := buildBatchPipeline(t, nil, nil)
	defer pool.Close()
	n := eng.nodes[1]
	held := &creditedLink{inner: &localLink{target: eng.nodes[2]}, q: newLinkQueue(), batch: 8}
	n.links[0] = []link{held}
	const groups, group = 101, 8
	openReadyTasks(t, n, 1, groups*group)
	n.commitBatch(group)
	first := held.q.items.at(0)
	sent := slices.Clone(first.Finals)
	for g := 1; g < groups; g++ {
		n.commitBatch(group)
	}
	if got := held.q.len(); got != groups {
		t.Fatalf("%d frames queued on the link, want %d", got, groups)
	}
	if first.Type != transport.MsgFinalizeBatch || len(first.Finals) != group || cap(first.Finals) != group {
		t.Fatalf("the first group's frame is %v with %d references (cap %d), want a FINALIZE run of %d", first.Type, len(first.Finals), cap(first.Finals), group)
	}
	for i, f := range first.Finals {
		if want := outputID(n.opID, event.ID{Source: 0, Seq: event.Seq(i + 1)}, 0); f != sent[i] || f.ID != want {
			t.Errorf("reference %d of the queued run reads %v, sent as %v for output %s", i, f, sent[i], want)
		}
	}
}
