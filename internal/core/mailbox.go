package core

import (
	"sync"
	"sync/atomic"
	"time"

	"streammine/internal/event"
	"streammine/internal/metrics"
	"streammine/internal/transport"
)

// mailbox is a FIFO queue with blocking Pop, split into two lanes:
//
//   - The control lane carries FINALIZE, REVOKE, ACK, REPLAY, re-execution
//     commands, commit notices and everything else that flows against the
//     data direction.
//     It is always unbounded and popped first, so control traffic retains
//     guaranteed progress no matter how congested the data lane is (the
//     deadlock a naive bounded mailbox would reintroduce — DESIGN §9).
//     Popping it first is also a latency and CPU feature, not only
//     deadlock avoidance: FIFO order per input measured 15 % more CPU and
//     11 % more allocations per event on ingest-rate (ROADMAP, "Settled
//     by measurement").
//   - The data lane carries EVENT messages and source injections. It has a
//     configured capacity enforced upstream by credit-based flow control;
//     the lane itself only accounts (depth, high-water mark, overflow
//     count) and never rejects, so the bound is soft at the mailbox and
//     hard at the credit gates. A transient overshoot — e.g. a bridge
//     reconnect resetting its credit window while replayed events are
//     still queued — shows up in the overflow counter instead of wedging
//     the pipeline.
//
// Lane separation means a control message can overtake the data event it
// refers to; the dispatcher's admission path holds early FINALIZE/REVOKE
// stashes to absorb that reordering (see node.pendFin / node.pendRevoke).
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	ctl    ring[mailItem]
	data   ring[mailItem]
	closed bool
	led    *inflight // counts each push by its events; the dispatch turn settles them

	dataCap   int // 0 = unbounded (no accounting against a bound)
	dataDepth int // queued data EVENTS (an item weighs the length of its run)
	dataHigh  int
	overflow  uint64

	// qdelay, when set, observes data-lane queueing delay (push→pop) from
	// the items' push stamps. nil qdelay keeps the unmetered path free of
	// clock reads.
	qdelay  *metrics.HDR
	noticed atomic.Bool // a commit notice is queued (PushCommit)
}

// mailItem is the one element type of both lanes: a frame, a re-execution
// command (reexec.t set), a commit notice (commit set) or a source injection
// (inject non-empty: a run of a SourceHandle's events in emission order —
// one push, one dispatcher turn, one delivery). A concrete type, so that
// queueing a frame does not box it.
type mailItem struct {
	msg      transport.Message
	reexec   cmdReexec
	inject   []event.Event
	commit   bool
	pushedNs int64 // data-lane push stamp; zero unless qdelay is set
}

// ring is a growable FIFO ring buffer. Nothing is allocated before the
// first push, a full ring doubles, and a popped slot is zeroed so that it
// pins nothing.
type ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int // index of the oldest element
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		grown := make([]T, max(2*len(r.buf), 8))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// at returns the i-th oldest element, 0 <= i < r.n.
func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)&(len(r.buf)-1)] }

func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

func newMailbox(f *inflight) *mailbox {
	m := &mailbox{led: f}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// SetDataCap configures the data-lane capacity (0 = unbounded). Set
// before the node starts; it is a reporting bound, not an admission gate.
func (m *mailbox) SetDataCap(c int) {
	m.mu.Lock()
	m.dataCap = c
	m.mu.Unlock()
}

// SetQueueDelay wires the data-lane queueing-delay histogram. Set before
// the node starts (wiring-time only, like SetDataCap).
func (m *mailbox) SetQueueDelay(h *metrics.HDR) {
	m.mu.Lock()
	m.qdelay = h
	m.mu.Unlock()
}

// dataWeight classifies an item onto the data lane and reports how many
// events it carries: the length of an input run or a source injection.
// Control items weigh 0.
func (it *mailItem) dataWeight() int {
	switch {
	case len(it.inject) > 0:
		return len(it.inject)
	case it.msg.Type == transport.MsgEvent:
		return 1
	case it.msg.Type == transport.MsgEventBatch:
		return len(it.msg.Events)
	}
	return 0
}

// weight is what the item counts in flight until its dispatch settles it:
// its events, or 1, or nothing for a commit notice (its tasks are counted).
func (it *mailItem) weight() int {
	if it.commit {
		return 0
	}
	return max(it.dataWeight(), 1)
}

// Push enqueues a frame on its lane; it never blocks. Pushing to a closed
// mailbox is a silent no-op (shutdown races are benign).
func (m *mailbox) Push(msg transport.Message) { m.push(mailItem{msg: msg}) }

// PushReexec enqueues a re-execution command on the control lane.
func (m *mailbox) PushReexec(c cmdReexec) { m.push(mailItem{reexec: c}) }

// PushInject enqueues a source injection on the data lane.
func (m *mailbox) PushInject(run []event.Event) { m.push(mailItem{inject: run}) }

// PushCommit queues a commit notice on the control lane — a task may have
// become ready — unless one is queued already: a burst of wakes between two
// pops queues one.
func (m *mailbox) PushCommit() {
	if m.noticed.CompareAndSwap(false, true) {
		m.push(mailItem{commit: true})
	}
}

func (m *mailbox) push(it mailItem) {
	m.mu.Lock()
	if !m.closed {
		m.led.add(it.weight())
		if w := it.dataWeight(); w > 0 {
			if m.qdelay != nil {
				it.pushedNs = time.Now().UnixNano()
			}
			m.data.push(it)
			m.dataDepth += w
			if m.dataDepth > m.dataHigh {
				m.dataHigh = m.dataDepth
			}
			if m.dataCap > 0 && m.dataDepth > m.dataCap {
				m.overflow++
			}
		} else {
			m.ctl.push(it)
		}
		m.cond.Signal()
	}
	m.mu.Unlock()
}

// maxRun caps a run of what is ready: the events one Pop takes for
// admission (27 and 256 measured alike, 8 not), the tasks one commit
// group takes and the pops of one execution run.
const maxRun = 64

// Pop dequeues the oldest control item, or the oldest data item when the
// control lane is empty, blocking while both lanes are empty. It returns
// ok=false once the mailbox is closed. An input frame leaves
// with the EVENT frames queued right behind it for the same input, up to a
// source injection or maxRun events: their events, in arrival order, are
// appended to run[:0] as evs. Any other item leaves alone.
func (m *mailbox) Pop(run []event.Event) (it mailItem, evs []event.Event, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.ctl.n == 0 && m.data.n == 0 && !m.closed {
		m.cond.Wait()
	}
	evs = run[:0]
	if m.ctl.n > 0 {
		it = m.ctl.pop()
		if it.commit {
			m.noticed.Store(false) // before the commit turn: a later wake queues one
		}
		return it, evs, true
	}
	var one [1]event.Event
	for m.data.n > 0 { // ok: the run has its first item, it
		next := &m.data.buf[m.data.head]
		if ok && (len(it.inject) > 0 || len(next.inject) > 0 || next.msg.Input != it.msg.Input ||
			len(evs)+next.dataWeight() > maxRun) {
			break
		}
		d := m.data.pop()
		m.dataDepth -= d.dataWeight()
		if d.pushedNs != 0 {
			m.qdelay.Observe(time.Now().UnixNano() - d.pushedNs)
		}
		if !ok {
			it, ok = d, true
		}
		evs = append(evs, eventsOf(&d.msg, &one)...)
	}
	return it, evs, ok
}

// DataDepth reports the data-lane occupancy in events (a queued batch
// counts each event it carries).
func (m *mailbox) DataDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dataDepth
}

// DataCap reports the configured data-lane capacity (0 = unbounded).
func (m *mailbox) DataCap() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dataCap
}

// DataHighWater reports the peak data-lane occupancy since (re)open.
func (m *mailbox) DataHighWater() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dataHigh
}

// Overflows reports how many pushes exceeded the configured capacity.
func (m *mailbox) Overflows() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.overflow
}

// Close discards everything queued on both lanes, wakes all blocked Pops
// and returns the in-flight weight of what it dropped, for the closer to
// settle: a node stops at the instant, taking nothing more off its queue
// (DESIGN.md §9.8). The events dropped are exactly the unacknowledged ones
// upstream will replay.
func (m *mailbox) Close() (dropped int) {
	m.mu.Lock()
	for _, r := range [...]*ring[mailItem]{&m.ctl, &m.data} {
		for i := 0; i < r.n; i++ {
			it := r.at(i)
			dropped += it.weight()
		}
		*r = ring[mailItem]{}
	}
	m.dataDepth = 0
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	return dropped
}

// Reopen makes a closed mailbox take pushes again. Node recovery reopens
// the original mailbox instead of replacing it so concurrent senders never
// observe a torn field write. A notice Close dropped is queued no more.
func (m *mailbox) Reopen() {
	m.mu.Lock()
	m.dataHigh = 0
	m.closed = false
	m.noticed.Store(false)
	m.mu.Unlock()
}
