package core

import (
	"fmt"
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/operator"
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
// worker starts are one run — one decision-log append for the run's 25
// decisions and, published back to back, one EVENT_BATCH of 25 on the
// credited out-edge. A run of one, all that one event in flight ever makes,
// still appends once and leaves as a plain EVENT.
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
			for deadline := time.Now().Add(5 * time.Second); l.q.len() < tc.events; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d outputs published", l.q.len(), tc.events)
				}
			}
			n.execQ.Close()
			n.wg.Wait()
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
				if tk.state != taskOpen || !tk.published || len(tk.decisions) != 1 {
					t.Errorf("task %d: state %v, published %t, %d decisions; want open and published with one", i, tk.state, tk.published, len(tk.decisions))
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
// begins, the head must already be published.
func TestWorkerRunPublishesBeforeReexecution(t *testing.T) {
	var head *task
	headPublished := make(map[event.Seq]bool) // by the attempt's input
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	cls := g.AddNode(graph.Node{
		Name: "cls", Traits: operator.ClassifierTraits(1), Speculative: true,
		Op: probeOp{&operator.Classifier{Classes: 1}, func(e event.Event) {
			head.mu.Lock()
			headPublished[e.ID.Seq] = head.published
			head.mu.Unlock()
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
	n := eng.nodes[cls]
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
	for _, tk := range []*task{head, young} {
		if tk.state != taskOpen || !tk.published {
			t.Errorf("task %d: state %v, published %t; want both open and published", tk.seq, tk.state, tk.published)
		}
	}
	if young.attempts != 2 {
		t.Errorf("the younger task made %d attempts, want 2", young.attempts)
	}
}
