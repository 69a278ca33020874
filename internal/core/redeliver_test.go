package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"streammine/internal/checkpoint"
	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/transport"
)

// redeliverRig is an upstream engine, src → up (a classifier that
// checkpoints every 5 commits), whose up bridges into a downstream engine
// holding down (a classifier that checkpoints every 8). down's bridged
// input listens on two addresses, so that the bridge can move, and records
// the type of every frame it receives.
type redeliverRig struct {
	t *testing.T

	disk   *memDisk
	pool   *storage.Pool
	ckpts  checkpoint.Store
	engA   *Engine
	s      *SourceHandle // a second handle would emit the same IDs again
	up     graph.NodeID
	bridge *ReliableBridge

	engB  *Engine
	down  *node
	addrs [2]string

	mu     sync.Mutex
	frames []transport.MsgType
}

// redeliverEvents is what the rig's source emits: down commits all of them,
// ACKs the first 8 once its checkpoint mark is stable and keeps the ACKs of
// the last 4 in sinceCkpt.
const redeliverEvents = 12

func newRedeliverRig(t *testing.T) *redeliverRig {
	r := &redeliverRig{t: t}
	gB := graph.New()
	down := gB.AddNode(graph.Node{
		Name:            "down",
		Op:              &operator.Classifier{Classes: 4},
		Traits:          operator.ClassifierTraits(4),
		Speculative:     true,
		CheckpointEvery: 8,
	})
	r.engB = newTestEngine(t, gB, Options{Seed: 72})
	r.down = r.engB.nodes[down]
	for i := range r.addrs {
		h, err := r.engB.BridgeIn(down, 0)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := transport.ListenConn("127.0.0.1:0", func(c transport.Conn, m transport.Message) {
			r.mu.Lock()
			r.frames = append(r.frames, m.Type)
			r.mu.Unlock()
			h(c, m)
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		r.addrs[i] = srv.Addr()
	}
	r.startA(false)
	return r
}

// startA builds and starts the upstream engine over the rig's storage,
// restoring from it when restore is set, with up bridged to down's first
// address before the start.
func (r *redeliverRig) startA(restore bool) {
	t := r.t
	if r.disk == nil {
		r.disk, r.ckpts = new(memDisk), checkpoint.NewMemStore()
		r.pool = storage.NewPool([]storage.Disk{r.disk})
		pool := r.pool
		t.Cleanup(func() { pool.Close() })
	}
	g, src, up := classifierGraph(5)
	eng, err := New(g, Options{
		Pool: r.pool, LogScanner: memScanner(r.disk), CheckpointStore: r.ckpts,
		Seed: 71, RestoreFromStorage: restore,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)
	b, err := eng.BridgeOutReliableOpts(up, 0, r.addrs[0], BridgeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	s, err := eng.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	r.engA, r.s, r.up, r.bridge = eng, s, up, b
}

// stopA stops the upstream engine and its bridge.
func (r *redeliverRig) stopA() {
	r.bridge.Close()
	r.engA.Stop()
}

// emit has the source emit its next k events.
func (r *redeliverRig) emit(k int) {
	for i := 0; i < k; i++ {
		if _, err := r.s.Emit(uint64(i), nil); err != nil {
			r.t.Fatal(err)
		}
	}
}

func (r *redeliverRig) frameLog() []transport.MsgType {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.frames)
}

// settle waits until both engines are drained and no frame has reached
// down for 50 ms.
func (r *redeliverRig) settle() {
	for deadline := time.Now().Add(10 * time.Second); ; {
		before := len(r.frameLog())
		drainOrDump(r.t, r.engA, 10*time.Second)
		drainOrDump(r.t, r.engB, 10*time.Second)
		time.Sleep(50 * time.Millisecond)
		if len(r.frameLog()) == before {
			return
		}
		if time.Now().After(deadline) {
			r.t.Fatal("frames kept reaching down")
		}
	}
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRedeliverPrecedesRepeats: each path that may repeat an output whose
// final already went out puts a REDELIVER on the edge first — a REPLAY
// request, a reliable bridge's reconnect, a crash and recovery, a start
// that restores a non-empty store — and a start over an empty store sends
// none. Downstream, the node committed everything before the path unarmed,
// so its commits were only logged; after the path a duplicate of one of
// them is dropped, and re-ACKed unless its ACK still waits for a stable
// checkpoint mark.
func TestRedeliverPrecedesRepeats(t *testing.T) {
	for _, tc := range []struct {
		name   string
		path   func(r *redeliverRig)
		marker bool
	}{
		{"replay request", func(r *redeliverRig) {
			r.engA.nodes[r.up].mailbox.Push(transport.Message{Type: transport.MsgReplay})
		}, true},
		{"bridge reconnect", func(r *redeliverRig) { r.bridge.Retarget(r.addrs[1]) }, true},
		{"crash and recover", func(r *redeliverRig) {
			if err := r.engA.Crash(r.up); err != nil {
				r.t.Fatal(err)
			}
			if err := r.engA.Recover(r.up); err != nil {
				r.t.Fatal(err)
			}
		}, true},
		{"restore at start", func(r *redeliverRig) {
			r.stopA()
			r.startA(true)
			r.emit(redeliverEvents) // the source's history again: up replays past its checkpoint
		}, true},
		{"fresh start", func(r *redeliverRig) {
			r.stopA()
			r.disk = nil // a new, empty store
			r.startA(true)
			r.emit(redeliverEvents)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRedeliverRig(t)
			up, down := r.engA.nodes[r.up], r.down
			// A commit group crossing a multiple of 8 checkpoints all of
			// it: the last 4 follow once the first 8 are ACKed.
			for _, k := range []int{8, redeliverEvents - 8} {
				r.emit(k)
				committed := down.cCommitted.Load() + uint64(k)
				waitFor(t, "down's commits and ACKs", func() bool {
					down.mu.Lock()
					pending := len(down.sinceCkpt)
					down.mu.Unlock()
					up.mu.Lock()
					buffered := up.outBuf.len()
					up.mu.Unlock()
					return down.cCommitted.Load() == committed && pending == k%8 && buffered == k%8
				})
			}
			r.settle()
			down.mu.Lock()
			armed, indexed, logged := down.committed.armed, down.committed.set.dir != nil, down.committed.len()
			var acked, pending event.ID
			if !armed && !indexed && logged == redeliverEvents {
				acked, pending = down.committed.log[0][0], down.sinceCkpt[len(down.sinceCkpt)-1].id
			}
			down.mu.Unlock()
			if armed || indexed || logged != redeliverEvents {
				t.Fatalf("before the path: armed %t, indexed %t, %d commits; want %d logged only",
					armed, indexed, logged, redeliverEvents)
			}
			r.mu.Lock()
			r.frames = nil
			r.mu.Unlock()

			tc.path(r)
			waitFor(t, "a frame from the path", func() bool { return len(r.frameLog()) > 0 })
			r.settle()
			frames := r.frameLog()
			if tc.marker && frames[0] != transport.MsgRedeliver {
				t.Fatalf("the path's first frame is %v, want REDELIVER; all: %v", frames[0], frames)
			}
			if !tc.marker && slices.Contains(frames, transport.MsgRedeliver) {
				t.Fatalf("a start over an empty store sent a REDELIVER: %v", frames)
			}

			// The path's own repeats were dropped; so are these.
			acks := &ackRecorder{}
			down.setUpstream(0, acks)
			for _, id := range []event.ID{acked, pending} {
				down.mailbox.Push(transport.Message{Type: transport.MsgEvent, Event: event.Event{ID: id}, Input: 0})
			}
			drainOrDump(t, r.engB, 10*time.Second)
			acks.mu.Lock()
			got := slices.Clone(acks.acks)
			acks.mu.Unlock()
			down.mu.Lock()
			armed = down.committed.armed
			down.mu.Unlock()
			if !armed || !slices.Equal(got, []event.ID{acked}) || down.cDispatched.Load() != redeliverEvents {
				t.Fatalf("after the path: armed %t, re-ACKed %v (want %v), %d tasks admitted (want %d)",
					armed, got, []event.ID{acked}, down.cDispatched.Load(), redeliverEvents)
			}
		})
	}
}

// TestUnarmedNodeKeepsNoIndex: a node that was never told an edge may
// repeat keeps its commits as a log, in commit order, and no set; one
// REDELIVER indexes all of them.
func TestUnarmedNodeKeepsNoIndex(t *testing.T) {
	const total, run = 100_000, 100
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	pass := g.AddNode(graph.Node{Name: "pass", Op: &operator.Passthrough{}, Speculative: true})
	g.Connect(src, 0, pass, 0)
	eng := newTestEngine(t, g, Options{Seed: 27})
	s, _ := eng.Source(src)
	n, _ := eng.node(pass)
	ids := make([]event.ID, 0, total)
	items := make([]BatchItem, run)
	for len(ids) < total {
		for n.cDispatched.Load()+4096 < uint64(len(ids)) {
			time.Sleep(100 * time.Microsecond) // a window: keep the mailbox short
		}
		evs, err := s.EmitBatch(items)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range evs {
			ids = append(ids, ev.ID)
		}
	}
	drainOrDump(t, eng, 10*time.Second)
	n.mu.Lock()
	logged := slices.Concat(n.committed.log...)
	armed, indexed := n.committed.armed, n.committed.set.dir != nil
	n.mu.Unlock()
	if armed || indexed || !slices.Equal(logged, ids) {
		t.Fatalf("unarmed after %d commits: armed %t, indexed %t, %d IDs logged in commit order %t",
			total, armed, indexed, len(logged), slices.Equal(logged, ids))
	}

	n.mailbox.Push(transport.Message{Type: transport.MsgRedeliver})
	drainOrDump(t, eng, 10*time.Second)
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.committed.armed || n.committed.log != nil || n.committed.set.len() != total {
		t.Fatalf("after a REDELIVER: armed %t, %d chunks logged, %d IDs indexed; want armed, none, %d",
			n.committed.armed, len(n.committed.log), n.committed.set.len(), total)
	}
	for _, id := range ids {
		if !n.committed.has(id) {
			t.Fatalf("committed %s not found once armed", id)
		}
	}
	if n.committed.has(event.ID{Source: 99, Seq: 1}) {
		t.Fatal("an ID never committed is found")
	}
}

// TestChangedFinalFollowsRedeliver: an output that left final and then
// changed (a finality violation) is re-sent behind a REDELIVER, because
// downstream may have committed the final.
func TestChangedFinalFollowsRedeliver(t *testing.T) {
	n, down := classifierHop(t, 1)
	n.admitRun(0, []event.Event{{ID: event.ID{Source: 0, Seq: 1}, Payload: operator.EncodeValue(0)}})
	tk, _ := n.execQ.Pop()
	waitLogged(t, tk)
	n.runTask(tk, new(procCtx))
	if _, evs, _ := down.mailbox.Pop(nil); len(evs) != 1 || evs[0].Speculative {
		t.Fatalf("the head sent %d events, want one final", len(evs))
	}

	tk.mu.Lock()
	tk.setOuts([]pendingOut{{payload: operator.EncodeValue(99)}})
	tk.mu.Unlock()
	n.publishOutputs(tk)
	if it, _, _ := down.mailbox.Pop(nil); it.msg.Type != transport.MsgRedeliver {
		t.Fatalf("the changed output's first frame is %v, want REDELIVER", it.msg.Type)
	}
	_, evs, _ := down.mailbox.Pop(nil)
	if len(evs) != 1 || !evs[0].Speculative || evs[0].Version != 1 || n.finalViolations.Load() != 1 {
		t.Fatalf("re-sent %d events (want one speculative of version 1), %d finality violations (want 1)",
			len(evs), n.finalViolations.Load())
	}
}
