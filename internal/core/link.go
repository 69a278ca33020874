package core

import (
	"sync"
	"time"

	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/transport"
)

// link is one delivery target attached to a node output port.
type link interface {
	// deliver hands a message to the target; must not block indefinitely.
	deliver(m transport.Message)
	// buffered reports whether the link participates in the output-buffer
	// ACK protocol (node-to-node links do; sink callbacks do not).
	buffered() bool
}

// The three run-carrying frame families each come in two wire shapes: one
// item inline (EVENT, FINALIZE, ACK) or a run of them (EVENT_BATCH,
// FINALIZE_BATCH, ACK_BATCH). eventsOf and refsOf are the receiving edge —
// the only readers of that distinction; past them the engine handles runs,
// and a run of one is just a short run. eventFrame and refFrame are the
// emitting edge: a run of one goes out in the plain shape.

// eventsOf returns the run of data events a frame carries, nil for a
// control frame. one backs a run of one.
func eventsOf(m *transport.Message, one *[1]event.Event) []event.Event {
	switch m.Type {
	case transport.MsgEvent:
		one[0] = m.Event
		return one[:]
	case transport.MsgEventBatch:
		return m.Events
	}
	return nil
}

// refsOf returns the run of FINALIZE notices (ack=false) or upstream ACKs
// (ack=true) a frame carries, nil for any other frame. one backs a run of
// one.
func refsOf(m *transport.Message, one *[1]transport.FinalizeRef) (refs []transport.FinalizeRef, ack bool) {
	switch m.Type {
	case transport.MsgFinalize, transport.MsgAck:
		one[0] = transport.FinalizeRef{ID: m.ID, Version: m.Version}
		return one[:], m.Type == transport.MsgAck
	case transport.MsgFinalizeBatch, transport.MsgAckBatch:
		return m.Finals, m.Type == transport.MsgAckBatch
	}
	return nil, false
}

// eventFrame frames a non-empty run of data events.
func eventFrame(run []event.Event) transport.Message {
	if len(run) == 1 {
		return transport.Message{Type: transport.MsgEvent, Event: run[0]}
	}
	return transport.Message{Type: transport.MsgEventBatch, Events: run}
}

// refFrame frames a non-empty run of FINALIZE notices or, with ack set, of
// upstream ACKs (whose references carry no version).
func refFrame(refs []transport.FinalizeRef, ack bool) transport.Message {
	one, run := transport.MsgFinalize, transport.MsgFinalizeBatch
	if ack {
		one, run = transport.MsgAck, transport.MsgAckBatch
	}
	if len(refs) == 1 {
		return transport.Message{Type: one, ID: refs[0].ID, Version: refs[0].Version}
	}
	return transport.Message{Type: run, Finals: refs}
}

// localLink delivers into another node's mailbox within the same engine.
type localLink struct {
	target *node
	input  int
}

var _ link = (*localLink)(nil)

func (l *localLink) deliver(m transport.Message) {
	m.Input = l.input
	l.target.mailbox.Push(m)
}

func (l *localLink) buffered() bool { return true }

// callbackLink adapts a subscriber function to a link. It tracks
// speculative events so the finalize callback can re-deliver their content
// with final=true.
type callbackLink struct {
	fn func(ev event.Event, final bool)

	mu      sync.Mutex
	pending idTable[event.Event]
}

var _ link = (*callbackLink)(nil)

func (l *callbackLink) deliver(m transport.Message) {
	var oneEv [1]event.Event
	for _, ev := range eventsOf(&m, &oneEv) {
		l.deliverEvent(ev)
	}
	var oneRef [1]transport.FinalizeRef
	if refs, ack := refsOf(&m, &oneRef); !ack {
		for _, f := range refs {
			l.finalize(f.ID, f.Version)
		}
	}
	if m.Type == transport.MsgRevoke {
		l.mu.Lock()
		l.pending.delete(m.ID)
		l.mu.Unlock()
	}
}

func (l *callbackLink) deliverEvent(ev event.Event) {
	if ev.Speculative {
		l.mu.Lock()
		l.pending.put(ev.ID, ev)
		l.mu.Unlock()
		l.fn(ev, false)
		return
	}
	// A final event supersedes any speculative copy.
	l.mu.Lock()
	l.pending.delete(ev.ID)
	l.mu.Unlock()
	l.fn(ev, true)
}

func (l *callbackLink) finalize(id event.ID, version event.Version) {
	l.mu.Lock()
	ev, ok := l.pending.get(id)
	if ok && ev.Version == version {
		l.pending.delete(id)
	}
	l.mu.Unlock()
	if ok && ev.Version == version {
		l.fn(ev.AsFinal(), true)
	}
}

func (l *callbackLink) buffered() bool { return false }

// linkQueue is a plain unbounded FIFO (no lane split: per-link order is
// preserved exactly) feeding a creditedLink's sender goroutine.
type linkQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  ring[transport.Message]
	closed bool
	led    *inflight // counts each push; the sender settles it
}

func newLinkQueue(f *inflight) *linkQueue {
	q := &linkQueue{led: f}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *linkQueue) push(m transport.Message) {
	q.mu.Lock()
	if !q.closed {
		q.led.add(1)
		q.items.push(m)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

func (q *linkQueue) pop() (transport.Message, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.items.n == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.items.n == 0 {
		return transport.Message{}, false
	}
	return q.items.pop(), true
}

// takeEvents appends to run the single-EVENT messages queued right behind
// it, at most max of them, without blocking. It stops at the first non-EVENT
// item (control and batch frames keep their queue position), so per-link
// ordering is preserved exactly. With nothing to take, run comes back as it
// is; otherwise the longer run is cut from owned, for run may be shared with
// the other links of its port.
func (q *linkQueue) takeEvents(run []event.Event, max int, owned *slab[event.Event]) []event.Event {
	q.mu.Lock()
	defer q.mu.Unlock()
	k := 0
	for k < min(max, q.items.n) && q.items.at(k).Type == transport.MsgEvent {
		k++
	}
	if k == 0 {
		return run
	}
	merged := owned.take(len(run) + k)
	for i := copy(merged, run); i < len(merged); i++ {
		merged[i] = q.items.pop().Event
	}
	return merged
}

func (q *linkQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.items.n
}

func (q *linkQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// creditedLink wraps another link with credit-based flow control. Callers
// never block: deliver enqueues onto an unbounded per-link FIFO and a
// dedicated sender goroutine alone pays the credit wait. Only data events
// consume credits; control messages ride the same queue (so per-link
// ordering is preserved) but pass the gate for free, keeping
// FINALIZE/REVOKE progress independent of data congestion.
//
// The caller must never block here because the dispatcher that delivers
// events is the same goroutine that processes inbound CREDIT grants on
// the reverse path — blocking it on a credit would deadlock the cycle.
type creditedLink struct {
	n     *node // the sending node, failed if the ledger goes below zero
	inner link
	gate  *flow.CreditGate
	q     *linkQueue
	frame int               // cap on the events of one frame: at most the window
	runs  slab[event.Event] // the sender's: what coalesced runs are cut from
	done  chan struct{}
	once  sync.Once
}

var _ link = (*creditedLink)(nil)

// newCreditedLink wraps n's link inner behind a credit gate of the given
// window and starts the sender. A frame is what is queued: the sender
// coalesces the events queued behind a run into one frame of up to maxRun
// events and a quarter of the window (creditBatch), charging the gate once
// for the frame. It never waits for a frame to fill.
func newCreditedLink(n *node, inner link, window int) *creditedLink {
	l := &creditedLink{
		n: n, inner: inner, gate: flow.NewCreditGate(window), q: newLinkQueue(&n.eng.inflight),
		frame: min(maxRun, creditBatch(window)), done: make(chan struct{}),
	}
	go l.sender()
	return l
}

func (l *creditedLink) deliver(m transport.Message) { l.q.push(m) }

func (l *creditedLink) buffered() bool { return l.inner.buffered() }

// sender forwards queued messages, control frames as they are and data
// events as credit-charged runs, each in flight until its delivery returns.
func (l *creditedLink) sender() {
	defer close(l.done)
	var one [1]event.Event
	for {
		m, ok := l.q.pop()
		if !ok {
			return
		}
		frames := 1
		if run := eventsOf(&m, &one); len(run) > 0 {
			frames = l.sendRun(run)
		} else {
			l.inner.deliver(m)
		}
		l.n.settle(frames)
	}
}

// sendRun sends one run of data events as frames of up to l.frame events,
// one credit charge each, and reports how many queued frames it was made
// of. A run shorter than the cap first takes the single events queued right
// behind it; a longer one leaves in cap-sized frames. If the gate closed
// meanwhile (shutdown) the rest of the run is dropped: its events are either
// retained in the output buffer for replay or moot because the engine is
// stopping.
func (l *creditedLink) sendRun(run []event.Event) (frames int) {
	if len(run) < l.frame {
		merged := l.q.takeEvents(run, l.frame-len(run), &l.runs)
		run, frames = merged, len(merged)-len(run)
	}
	for len(run) > 0 {
		k := min(len(run), l.frame)
		if !l.gate.AcquireN(k) {
			break
		}
		l.inner.deliver(eventFrame(run[:k:k]))
		run = run[k:]
	}
	return 1 + frames
}

// close stops the sender and releases any credit wait. Idempotent.
func (l *creditedLink) close() {
	l.once.Do(func() {
		l.q.close()
		l.gate.Close()
	})
	<-l.done
}

// creditGranter returns credits to the upstream side of an edge when an
// event leaves the receiver's mailbox.
type creditGranter interface {
	grant(n int)
}

// localGranter shares the gate with an in-process creditedLink.
type localGranter struct{ gate *flow.CreditGate }

func (g localGranter) grant(n int) { g.gate.Grant(n) }

// remoteGranter batches grants and returns them over the input's
// registered upstream connection as CREDIT frames (count in ID.Seq).
// Batching caps the control-frame overhead at 1/batch per event; the
// withheld remainder is at most batch-1 < window credits, so the sender
// can always make progress and every withheld credit is flushed by the
// pops of the very events it covers.
type remoteGranter struct {
	n     *node
	input int
	batch int

	mu      sync.Mutex
	pending int
}

func (g *remoteGranter) grant(n int) {
	g.mu.Lock()
	g.pending += n
	if g.pending < g.batch {
		g.mu.Unlock()
		return
	}
	send := g.pending
	g.pending = 0
	g.mu.Unlock()
	g.n.sendUpstream(g.input, transport.Message{
		Type: transport.MsgCredit,
		ID:   event.ID{Seq: event.Seq(send)},
	})
}

// outRecord is one output event retained in a node's output buffer until
// every buffered downstream link has acknowledged it (paper §2.2: upstream
// output buffers enable replay; ACKs prune them).
type outRecord struct {
	id      event.ID
	port    int
	ts      int64
	key     uint64
	payload []byte
	trace   uint64 // lineage trace id inherited from the input event

	version event.Version
	// finalSent, like version, is written and read only by the owning
	// node's dispatcher, or while its goroutines are not running (restore).
	finalSent   bool
	pendingAcks int
	seq         uint64 // emission order within the node, for ordered replay
	// specAt stamps the first speculative send (zero when the record went
	// out final), feeding the speculation→finalize window histogram. Only
	// set when engine metrics are enabled.
	specAt time.Time
}

// matches reports whether a newly produced output is identical to the
// record (same observable content on the same port).
func (r *outRecord) matches(port int, ts int64, key uint64, payload []byte) bool {
	return r.port == port && r.ts == ts && r.key == key && string(r.payload) == string(payload)
}

// toEvent materializes the record as an event with the given speculation
// flag.
func (r *outRecord) toEvent(spec bool) event.Event {
	return event.Event{
		ID:          r.id,
		Timestamp:   r.ts,
		Version:     r.version,
		Speculative: spec,
		Key:         r.key,
		Trace:       r.trace,
		Payload:     r.payload,
	}
}
