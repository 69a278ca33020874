package core

import (
	"sync"
	"time"

	"streammine/internal/event"
	"streammine/internal/metrics"
	"streammine/internal/transport"
)

// mailbox is a FIFO queue with blocking Pop, split into two lanes:
//
//   - The control lane carries FINALIZE, REVOKE, ACK, REPLAY, re-execution
//     commands and everything else that flows against the data direction.
//     It is always unbounded and popped first, so control traffic retains
//     guaranteed progress no matter how congested the data lane is (the
//     deadlock a naive bounded mailbox would reintroduce — DESIGN §9).
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

	dataCap   int // 0 = unbounded (no accounting against a bound)
	dataDepth int // queued data EVENTS (an item weighs the length of its run)
	dataHigh  int
	overflow  uint64

	// qdelay, when set, observes data-lane queueing delay (push→pop) from
	// the items' push stamps. nil qdelay keeps the unmetered path free of
	// clock reads.
	qdelay *metrics.HDR
}

// mailItem is the one element type of both lanes: a frame, a re-execution
// command (reexec.t set) or a source injection (inject non-empty: a run of
// a SourceHandle's events in emission order — one push, one dispatcher turn,
// one delivery). A concrete type, so that queueing a frame does not box it.
type mailItem struct {
	msg      transport.Message
	reexec   cmdReexec
	inject   []event.Event
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

func newMailbox() *mailbox {
	m := &mailbox{}
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

// Push enqueues a frame on its lane; it never blocks. Pushing to a closed
// mailbox is a silent no-op (shutdown races are benign).
func (m *mailbox) Push(msg transport.Message) { m.push(mailItem{msg: msg}) }

// PushReexec enqueues a re-execution command on the control lane.
func (m *mailbox) PushReexec(c cmdReexec) { m.push(mailItem{reexec: c}) }

// PushInject enqueues a source injection on the data lane.
func (m *mailbox) PushInject(run []event.Event) { m.push(mailItem{inject: run}) }

func (m *mailbox) push(it mailItem) {
	m.mu.Lock()
	if !m.closed {
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

// Pop dequeues the oldest control item, or the oldest data item when the
// control lane is empty, blocking while both lanes are empty. It returns
// ok=false once the mailbox is closed and drained.
func (m *mailbox) Pop() (mailItem, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.ctl.n == 0 && m.data.n == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.ctl.n > 0 {
		return m.ctl.pop(), true
	}
	if m.data.n > 0 {
		it := m.data.pop()
		m.dataDepth -= it.dataWeight()
		if it.pushedNs != 0 {
			m.qdelay.Observe(time.Now().UnixNano() - it.pushedNs)
		}
		return it, true
	}
	return mailItem{}, false
}

// Len reports the queued item count across both lanes.
func (m *mailbox) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ctl.n + m.data.n
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

// Close wakes all blocked Pops; queued items remain poppable.
func (m *mailbox) Close() {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// Reopen clears a closed mailbox for reuse, discarding anything still
// queued. Node recovery reopens the original mailbox instead of replacing
// it so concurrent senders never observe a torn field write; the events
// dropped here are exactly the unacknowledged ones upstream will replay.
func (m *mailbox) Reopen() {
	m.mu.Lock()
	m.ctl = ring[mailItem]{}
	m.data = ring[mailItem]{}
	m.dataDepth = 0
	m.dataHigh = 0
	m.closed = false
	m.mu.Unlock()
}
