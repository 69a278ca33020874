package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/operator"
	"streammine/internal/profiler"
	"streammine/internal/stm"
	"streammine/internal/storage"
	"streammine/internal/transport"
	"streammine/internal/wal"
)

// passHop builds src -> pass -> sink around a one-worker speculative
// Passthrough{LogDecision: true}, which draws one logged decision per event,
// and returns pass's node, the sink's, and a count of pass's decision-log
// appends. The engine is never started.
func passHop(t *testing.T) (n, down *node, appends *metrics.Counter) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	pass := g.AddNode(graph.Node{
		Name: "pass", Op: &operator.Passthrough{LogDecision: true}, Speculative: true, Workers: 1,
	})
	sink := g.AddNode(graph.Node{Name: "sink", Op: &operator.Passthrough{}})
	g.Connect(src, 0, pass, 0)
	g.Connect(pass, 0, sink, 0)
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	t.Cleanup(func() { pool.Close() })
	eng, err := New(g, Options{Seed: 7, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	n, down = eng.nodes[pass], eng.nodes[sink]
	appends = &metrics.Counter{}
	n.log.SetMetrics(&wal.LogMetrics{Appends: appends})
	return n, down, appends
}

// heldFrames is the far end of a credited link whose sender it holds: a
// REVOKE keeps the sender in its delivery until release is closed, so that
// whatever is published meanwhile queues on the link. Data frames are handed
// on to frames.
type heldFrames struct {
	held, release chan struct{}
	frames        chan transport.Message
}

func (h *heldFrames) deliver(m transport.Message) {
	if m.Type == transport.MsgRevoke {
		close(h.held)
		<-h.release
		return
	}
	h.frames <- m
}

func (h *heldFrames) buffered() bool { return false }

// TestWorkerRunAppendsOnceFramesOnce: the tasks queued on a node when its
// worker starts are one run, handed back whole — one decision-log append for
// the run's 25 decisions and, published back to back, one EVENT_BATCH of 25
// on the credited out-edge. A run of one, all that one event in flight ever
// makes, still appends once and leaves as a plain EVENT.
func TestWorkerRunAppendsOnceFramesOnce(t *testing.T) {
	for _, tc := range []struct {
		events int
		frame  transport.MsgType
	}{{25, transport.MsgEventBatch}, {1, transport.MsgEvent}} {
		t.Run(fmt.Sprintf("run%d", tc.events), func(t *testing.T) {
			n, _, appends := passHop(t)
			end := &heldFrames{held: make(chan struct{}), release: make(chan struct{}), frames: make(chan transport.Message, tc.events)}
			l := newCreditedLink(n, end, 512)
			defer l.close()
			n.links[0] = []link{l}
			l.deliver(transport.Message{Type: transport.MsgRevoke})
			<-end.held

			evs := make([]event.Event, tc.events)
			for i := range evs {
				evs[i] = event.Event{ID: event.ID{Source: 0, Seq: event.Seq(i + 1)}, Key: uint64(i), Payload: operator.EncodeValue(uint64(i))}
			}
			n.admitRun(0, evs)
			n.wg.Add(1)
			go n.worker()
			for deadline := time.Now().Add(5 * time.Second); n.cExecuted.Load() < uint64(tc.events); time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d tasks executed", n.cExecuted.Load(), tc.events)
				}
			}
			n.execQ.Close()
			n.wg.Wait() // the run is handed back
			n.installRuns()
			if l.q.len() != tc.events {
				t.Fatalf("%d of %d outputs published", l.q.len(), tc.events)
			}
			close(end.release)

			var m transport.Message
			select {
			case m = <-end.frames:
			case <-time.After(5 * time.Second):
				t.Fatal("the sender sent nothing")
			}
			var one [1]event.Event
			if got := eventsOf(&m, &one); m.Type != tc.frame || len(got) != tc.events {
				t.Errorf("the run left as %v with %d events, want %v with %d", m.Type, len(got), tc.frame, tc.events)
			}
			if got := appends.Value(); got != 1 {
				t.Errorf("a run of %d made %d decision-log appends, want 1", tc.events, got)
			}
			for i := 0; i < tc.events; i++ {
				tk, _ := n.tasks.get(evs[i].ID)
				waitLogged(t, tk)
				if tk.state != taskOpen || len(tk.sent) != 1 || len(tk.decisions) != 1 {
					t.Errorf("task %d: state %v, %d sent, %d decisions; want open and published with one", i, tk.state, len(tk.sent), len(tk.decisions))
				}
			}
		})
	}
}

// TestWorkerRunAllocs pins what a worker's run of 25 logged tasks costs,
// execution to publication: the run's one append — the log's encoded buffer,
// its callback and the run's, and the in-memory disk's copy — and a share of
// the chunks the tasks' decision lists, the run's records and their owners
// are cut from. That is a constant, where an append per task cost 25 times a
// record slice, a buffer, two callbacks, a disk copy and a decision list.
func TestWorkerRunAllocs(t *testing.T) {
	const runs, run, want = 100, 25, 4.25
	n, down, appends := passHop(t)
	block := make([]task, (runs+1)*run) // AllocsPerRun adds a warm-up run
	queued := make([][]*task, runs+1)
	for i := range block {
		id := event.ID{Source: 0, Seq: event.Seq(i + 1)}
		block[i] = task{n: n, seq: int64(i + 1), state: taskQueued, evFinal: true,
			ev: event.Event{ID: id, Key: uint64(i), Payload: operator.EncodeValue(uint64(i))}}
		queued[i/run] = append(queued[i/run], &block[i])
	}
	ctx := new(procCtx)
	next := 0
	published := make([]event.Event, 0, maxRun)
	allocs := mallocsPerRun(runs, func() {
		n.execQ.PushAll(queued[next])
		next++
		n.run(n.execQ.TryPop(), ctx)
		n.installRuns()
		if it, evs, ok := down.mailbox.Pop(published); !ok || it.msg.Type != transport.MsgEvent || len(evs) != run {
			t.Fatalf("the run published %v with %d events, want %d single EVENT frames", it.msg.Type, len(evs), run)
		}
	})
	if got := appends.Value(); got != runs+1 {
		t.Fatalf("%d runs made %d decision-log appends, want one each", runs+1, got)
	}
	if allocs > want {
		t.Errorf("a run of %d logged tasks allocated %.2f, want at most %.2f", run, allocs, want)
	}
}

// probeOp is a Classifier that calls probe before each attempt.
type probeOp struct {
	*operator.Classifier
	probe func(e event.Event)
}

func (o probeOp) Process(ctx operator.Context, e event.Event) error {
	o.probe(e)
	return o.Classifier.Process(ctx, e)
}

// TestWorkerRunPublishesBeforeReexecution: a run ends before it executes a
// re-execution. The commit head is executed in a run, and behind it in the
// queue waits a retry of a younger task on the same state word, which a run
// that went on popping would execute — and might lose again, and again —
// with the head still unpublished, so uncommittable. When the retry's attempt
// begins, the head must already be handed back for the dispatcher to publish.
func TestWorkerRunPublishesBeforeReexecution(t *testing.T) {
	var n *node
	var head *task
	headPublished := make(map[event.Seq]bool) // by the attempt's input
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	cls := g.AddNode(graph.Node{
		Name: "cls", Traits: operator.ClassifierTraits(1), Speculative: true,
		Op: probeOp{&operator.Classifier{Classes: 1}, func(e event.Event) {
			n.mailbox.mu.Lock()
			headPublished[e.ID.Seq] = slices.ContainsFunc(n.mailbox.ran, func(a ranAttempt) bool { return a.t == head })
			n.mailbox.mu.Unlock()
		}},
	})
	sink := g.AddNode(graph.Node{Name: "sink", Op: &operator.Passthrough{}})
	g.Connect(src, 0, cls, 0)
	g.Connect(cls, 0, sink, 0)
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	t.Cleanup(func() { pool.Close() })
	eng, err := New(g, Options{Seed: 7, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	n = eng.nodes[cls]
	if err := n.spec.Op.Init(initContext{n: n}); err != nil {
		t.Fatal(err)
	}
	ctx := new(procCtx)
	head = &task{n: n, seq: 1, state: taskQueued, evFinal: true, ev: event.Event{ID: event.ID{Seq: 1}}}
	young := &task{n: n, seq: 2, state: taskQueued, evFinal: true, ev: event.Event{ID: event.ID{Seq: 2}}}

	// The younger task ran first; its attempt is aborted and its retry
	// queued, and the head is queued ahead of it.
	n.runTask(young, ctx)
	young.tx.Abort()
	re, _, _ := popWork(n.mailbox, nil)
	n.handleReexec(re.reexec)
	n.execQ.Push(head)

	first, _ := n.execQ.Pop()
	if first != head {
		t.Fatalf("popped seq %d first, want the head", first.seq)
	}
	n.run(first, ctx)
	if !headPublished[2] {
		t.Error("the retry began with the head executed but unpublished: the run did not end before the re-execution")
	}
	n.installRuns()
	for _, tk := range []*task{head, young} {
		if tk.state != taskOpen || len(tk.sent) != 1 {
			t.Errorf("task %d: state %v, %d sent; want both open and published", tk.seq, tk.state, len(tk.sent))
		}
	}
	if young.attempts != 2 {
		t.Errorf("the younger task made %d attempts, want 2", young.attempts)
	}
}

// TestRunHandBackAllocs pins what a worker's run costs between the worker
// and the dispatcher: executing a run of eight, handing it back with its
// commit notice and installing it — the tasks made open, the publication
// pass over them — allocate nothing once the lists have grown. The operator
// emits and decides nothing, so nothing is logged or sent.
func TestRunHandBackAllocs(t *testing.T) {
	const runs, run = 200, 8
	n := handNode(t, &operator.Filter{Pred: func(event.Event) bool { return false }})
	block := make([]task, (runs+1)*run) // AllocsPerRun adds a warm-up run
	for i := range block {
		block[i] = task{n: n, seq: int64(i + 1), state: taskQueued, evFinal: true,
			ev: event.Event{ID: event.ID{Seq: event.Seq(i + 1)}}}
	}
	ctx := new(procCtx)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		for i := 0; i < run; i++ {
			n.execute(&block[next], ctx)
			next++
		}
		n.endRun(ctx)
		if it, _, ok := n.mailbox.Pop(nil); !ok || !it.commit {
			t.Fatalf("the hand-back queued %+v, want a commit notice", it)
		}
		n.installRuns()
	})
	for i := range block {
		if tk := &block[i]; tk.state != taskOpen || tk.attempts != 1 {
			t.Fatalf("task %d: state %v after %d attempts taken back, want open after 1", i, tk.state, tk.attempts)
		}
	}
	if allocs != 0 {
		t.Errorf("a run of %d handed back and installed allocated %.1f, want 0", run, allocs)
	}
}

// TestArrivalsWaitForTheHandBack drives one node by hand and holds a
// worker's run of two executed tasks before its hand-back. Meanwhile a
// replacement with other content, final, arrives for the first task and a
// REVOKE for the second: the dispatcher keeps both until the run is back.
// No output of either stale attempt reaches downstream; the replaced task
// re-executes once, on the new content, and commits final; the revoked
// task's throttle slot comes back at once; and the engine drains to
// nothing in flight.
func TestArrivalsWaitForTheHandBack(t *testing.T) {
	n, down := classifierHop(t, 4)
	idA, idB := event.ID{Source: 1, Seq: 1}, event.ID{Source: 1, Seq: 2}
	var run []event.Event
	n.mailbox.Push(eventFrame([]event.Event{
		{ID: idA, Key: 1, Payload: operator.EncodeValue(1), Speculative: true},
		{ID: idB, Key: 2, Payload: operator.EncodeValue(2), Speculative: true},
	}))
	run, _ = popDispatch(t, n, run)
	a, b := n.open.at(0), n.open.at(1)
	waitLogged(t, a)
	waitLogged(t, b)
	if open, _, _ := n.throttle.Snapshot(); open != 2 {
		t.Fatalf("%d throttle slots taken, want one per task", open)
	}

	ctx := new(procCtx) // a worker's: it runs both, and holds the run
	for i := 0; i < 2; i++ {
		tk, _ := n.execQ.Pop()
		n.execute(tk, ctx)
	}
	staleA := a.tx
	n.mailbox.Push(transport.Message{Type: transport.MsgEvent, Event: event.Event{
		ID: idA, Version: 1, Key: 3, Payload: operator.EncodeValue(3),
	}})
	n.mailbox.Push(transport.Message{Type: transport.MsgRevoke, ID: idB})
	run, _ = popDispatch(t, n, run) // the REVOKE (control lane first)
	if open, _, _ := n.throttle.Snapshot(); open != 1 || b.state != taskCancelled {
		t.Fatalf("after the REVOKE: %d slots taken, the task is %v; want 1 and cancelled", open, b.state)
	}
	run, _ = popDispatch(t, n, run) // the replacement
	if _, kept := n.replaced[a]; staleA.Status() != stm.StatusCompleted || n.execQ.Len() != 0 || !kept {
		t.Fatalf("the replacement did not wait for the run: attempt %v, %d queued", staleA.Status(), n.execQ.Len())
	}

	n.endRun(ctx) // the hand-back
	for n.mailbox.Len() > 0 {
		run, _ = popDispatch(t, n, run)
	}
	if staleA.Status() != stm.StatusAborted || b.tx.Status() != stm.StatusAborted {
		t.Fatalf("the stale attempts are %v and %v, want both aborted", staleA.Status(), b.tx.Status())
	}
	if got := down.mailbox.Len(); got != 0 {
		t.Fatalf("%d frames downstream before the re-execution, want none", got)
	}
	if tk := n.execQ.TryPop(); tk != a || n.execQ.Len() != 0 {
		t.Fatal("the replaced task is not the one queued again")
	}
	n.runTask(a, new(procCtx))
	for n.commitBatch(maxRun) {
	}
	if n.cCommitted.Load() != 1 || a.state != taskCommitted || n.open.n != 0 {
		t.Fatalf("committed %d, %d open; want the replaced task committed and the revoked one retired", n.cCommitted.Load(), n.open.n)
	}
	if a.attempts != 2 || n.cReexec.Load() != 1 || n.cExecuted.Load() != 3 {
		t.Fatalf("%d attempts of the replaced task, %d re-executions, %d executions; want 2, 1, 3",
			a.attempts, n.cReexec.Load(), n.cExecuted.Load())
	}
	if open, _, _ := n.throttle.Snapshot(); open != 0 {
		t.Fatalf("%d throttle slots still taken", open)
	}
	evs, k := popDispatch(t, down, nil)
	if k != 1 || evs[0].ID != outputID(n.opID, idA, 0) || evs[0].Key != 3 || evs[0].Speculative {
		t.Fatalf("downstream got %v, want only the replaced task's final output of class 3", evs)
	}
	if down.mailbox.Len() != 0 {
		t.Fatalf("%d more frames downstream", down.mailbox.Len())
	}

	// The drain: the sink commits what it got and ACKs it, the node's ACK
	// reaches the source, and nothing is left in flight.
	got, _ := down.execQ.Pop()
	down.runTask(got, new(procCtx))
	for down.commitBatch(maxRun) {
	}
	for _, x := range n.eng.nodes {
		for x.mailbox.Len() > 0 {
			run, _ = popDispatch(t, x, run)
		}
	}
	if !n.eng.Quiesced() {
		t.Fatalf("%d units in flight after the drain", n.eng.inflight.n.Load())
	}
}

// TestReplacementOfQueuedTask: a task still on the executor queue has run
// nothing, so a content-changing replacement gives it the new content where
// it stands — no abort, no re-execution — and a replacement followed by a
// REVOKE leaves no content waiting for a hand-back that never comes.
func TestReplacementOfQueuedTask(t *testing.T) {
	n, down := classifierHop(t, 4)
	idA, idB := event.ID{Source: 1, Seq: 1}, event.ID{Source: 1, Seq: 2}
	var run []event.Event
	n.mailbox.Push(eventFrame([]event.Event{
		{ID: idA, Key: 1, Payload: operator.EncodeValue(1), Speculative: true},
		{ID: idB, Key: 2, Payload: operator.EncodeValue(2), Speculative: true},
	}))
	run, _ = popDispatch(t, n, run)
	a, b := n.open.at(0), n.open.at(1)
	waitLogged(t, a)
	waitLogged(t, b)

	for _, m := range []transport.Message{
		{Type: transport.MsgEvent, Event: event.Event{ID: idA, Version: 1, Key: 3, Payload: operator.EncodeValue(3)}},
		{Type: transport.MsgEvent, Event: event.Event{ID: idB, Version: 1, Key: 1, Payload: operator.EncodeValue(1)}},
		{Type: transport.MsgRevoke, ID: idB, Version: 1},
	} {
		n.mailbox.Push(m)
		run, _ = popDispatch(t, n, run)
	}
	if len(n.replaced) != 0 || a.ev.Key != 3 || a.state != taskQueued || b.state != taskCancelled {
		t.Fatalf("%d replacements waiting, task A of key %d %v, task B %v; want none, key 3 queued, B cancelled",
			len(n.replaced), a.ev.Key, a.state, b.state)
	}
	if tk := n.execQ.TryPop(); tk != a || n.execQ.Len() != 0 {
		t.Fatal("the replaced task is not the one queued")
	}
	n.runTask(a, new(procCtx))
	for n.commitBatch(maxRun) {
	}
	if a.state != taskCommitted || a.attempts != 1 || n.cExecuted.Load() != 1 || n.cReexec.Load() != 0 ||
		n.cAborts[profiler.CauseReplace].Load() != 0 {
		t.Fatalf("task A %v after %d attempts; %d executions, %d re-executions, %d replacement aborts; want committed after 1, 1, 0, 0",
			a.state, a.attempts, n.cExecuted.Load(), n.cReexec.Load(), n.cAborts[profiler.CauseReplace].Load())
	}
	if open, _, _ := n.throttle.Snapshot(); open != 0 {
		t.Fatalf("%d throttle slots still taken", open)
	}
	evs, k := popDispatch(t, down, nil)
	if k != 1 || evs[0].ID != outputID(n.opID, idA, 0) || evs[0].Key != 3 || evs[0].Speculative {
		t.Fatalf("downstream got %v, want only task A's final output of class 3", evs)
	}
}
