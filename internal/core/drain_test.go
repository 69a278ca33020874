package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/transport"
)

// TestDrainWaitsForEveryHandOff holds one unit of work at a hand-off where
// no queue holds it — a credited link's sender delivering a run, an item
// popped from a mailbox and not yet dispatched, a committer delivering its
// group's FINALIZE — and checks that Drain does not return, and Quiesced
// does not report quiet, while it is held, and that both do once it is let
// go.
func TestDrainWaitsForEveryHandOff(t *testing.T) {
	for _, tc := range []struct {
		name string
		hold func(t *testing.T) (eng *Engine, release func()) // returns with the work held
	}{
		{"credited send", func(t *testing.T) (*Engine, func()) {
			g := graph.New()
			src := g.AddNode(graph.Node{Name: "src"})
			op := g.AddNode(graph.Node{Name: "op", Op: &operator.Passthrough{}, Flow: &flow.Limits{CreditWindow: 8}})
			g.Connect(src, 0, op, 0)
			eng := newTestEngine(t, g, Options{Seed: 41})
			cl := eng.nodes[src].credLinks[0]
			hold := newHoldOne(t, cl.inner, transport.MsgEvent)
			cl.inner = hold // before the first push, which the sender waits for
			s, _ := eng.Source(src)
			emitRange(t, s, 0, 1)
			hold.wait(t)
			return eng, hold.letGo
		}},
		{"popped item", func(t *testing.T) (*Engine, func()) {
			g := graph.New()
			src := g.AddNode(graph.Node{Name: "src"})
			pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
			t.Cleanup(func() { pool.Close() })
			eng, err := New(g, Options{Seed: 42, Pool: pool}) // not started: the test is the dispatcher
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Subscribe(src, 0, func(event.Event, bool) {}); err != nil {
				t.Fatal(err)
			}
			s, _ := eng.Source(src)
			emitRange(t, s, 0, 1)
			n := eng.nodes[src]
			it, evs, _ := popWork(n.mailbox, nil)
			dispatch := sync.OnceFunc(func() { n.dispatch(it, evs) })
			t.Cleanup(dispatch)
			return eng, dispatch
		}},
		{"group FINALIZE", func(t *testing.T) (*Engine, func()) {
			var held atomic.Bool
			held.Store(true)
			stable := make(chan struct{})
			pool := storage.NewPool([]storage.Disk{holdDisk{new(memDisk), &held, stable}})
			t.Cleanup(func() { pool.Close() })
			r := newFinalityRig(t, 1, pool)
			letStable := sync.OnceFunc(func() { close(stable) })
			t.Cleanup(letStable)
			n := r.eng.nodes[r.op]
			hold := newHoldOne(t, n.links[0][0], transport.MsgFinalize)
			n.links[0][0] = hold
			r.emit(1, takesDecision)
			r.next(1, false) // speculative: its decision is not stable
			letStable()      // the commit, and its FINALIZE, follow
			hold.wait(t)
			return r.eng, hold.letGo
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, release := tc.hold(t)
			drained := make(chan struct{})
			go func() {
				eng.Drain()
				close(drained)
			}()
			for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
				select {
				case <-drained:
					t.Fatal("Drain returned while work was held")
				default:
				}
				if eng.Quiesced() {
					t.Fatal("Quiesced while work was held")
				}
			}
			release()
			select {
			case <-drained:
			case <-time.After(time.Second):
				t.Fatalf("Drain did not return within a second of the release; %d units in flight", eng.inflight.n.Load())
			}
			if !eng.Quiesced() || eng.Err() != nil {
				t.Fatalf("after the drain: quiesced %t, error %v", eng.Quiesced(), eng.Err())
			}
		})
	}
}

// holdOne is a link that keeps the first frame of one type it is handed
// until letGo, closing held when it starts to wait.
type holdOne struct {
	inner   link
	typ     transport.MsgType
	taken   atomic.Bool
	held    chan struct{}
	release chan struct{}
	letGo   func()
}

func newHoldOne(t *testing.T, inner link, typ transport.MsgType) *holdOne {
	l := &holdOne{inner: inner, typ: typ, held: make(chan struct{}), release: make(chan struct{})}
	l.letGo = sync.OnceFunc(func() { close(l.release) })
	t.Cleanup(l.letGo) // before the engine stops: it waits for the holder
	return l
}

func (l *holdOne) deliver(m transport.Message) {
	if m.Type == l.typ && !l.taken.Swap(true) {
		close(l.held)
		<-l.release
	}
	l.inner.deliver(m)
}

func (l *holdOne) buffered() bool { return l.inner.buffered() }

func (l *holdOne) wait(t *testing.T) {
	t.Helper()
	select {
	case <-l.held:
	case <-time.After(5 * time.Second):
		t.Fatalf("no %v frame reached the link", l.typ)
	}
}

// Len reports the queued item count across both lanes.
func (m *mailbox) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ctl.n + m.data.n
}

// Len reports the number of queued tasks.
func (q *taskQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// openCount reports tasks admitted and not yet committed or cleaned up.
func (n *node) openCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.open.n
}

// drainOrDump is Engine.Drain with a deadline. An engine that never goes
// quiet — a task whose input never became final blocks in-order commit for
// good (ROADMAP open item 1) — used to hang the test binary until it was
// killed, with nothing to read. Past the deadline this fails the test
// instead and says what the in-flight ledger holds and where every node with
// something queued, open or parked stands: queue lengths, and the state of
// the oldest open task, the one in-order commit is waiting on. The engine
// seed in the message replays the round.
func drainOrDump(t testing.TB, eng *Engine, deadline time.Duration) {
	t.Helper()
	drained := make(chan struct{})
	go func() {
		eng.Drain() // returns once t.Cleanup stops the engine, if not before
		close(drained)
	}()
	select {
	case <-drained:
		return
	case <-time.After(deadline):
	}
	var b strings.Builder
	for _, n := range eng.nodes {
		n.mu.Lock()
		open := n.open.n
		var head *task
		if open > 0 {
			head = n.open.at(0)
		}
		n.mu.Unlock()
		queued, parked := n.mailbox.Len(), n.creditQueued()
		if queued+open+parked == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n  node %q: mailbox %d, execQ %d, creditQueued %d, open %d",
			n.spec.Name, queued, n.execQ.Len(), parked, open)
		if head != nil {
			head.mu.Lock()
			state := [...]string{"?", "queued", "executing", "open", "committed", "cancelled"}[head.state]
			fmt.Fprintf(&b, "; head task seq %d state %s published %v evFinal %v pendingLogs %d input %s v%d",
				head.seq, state, head.published, head.evFinal, head.pendingLogs, head.ev.ID, head.ev.Version)
			head.mu.Unlock()
		}
	}
	t.Fatalf("engine (seed %d) not drained after %v, %d units in flight; stuck nodes:%s",
		eng.opts.Seed, deadline, eng.inflight.n.Load(), b.String())
}
