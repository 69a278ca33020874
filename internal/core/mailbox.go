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
	ctl    []any
	data   []any
	closed bool

	dataCap   int // 0 = unbounded (no accounting against a bound)
	dataDepth int // queued data EVENTS (an item weighs the length of its run)
	dataHigh  int
	overflow  uint64

	// qdelay, when set, observes data-lane queueing delay (push→pop);
	// dataTS mirrors data with per-item push stamps. nil qdelay keeps the
	// unmetered path free of clock reads and slice traffic.
	qdelay *metrics.HDR
	dataTS []int64
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
func dataWeight(item any) int {
	switch v := item.(type) {
	case transport.Message:
		var one [1]event.Event
		return len(eventsOf(&v, &one))
	case *cmdInject:
		return len(v.evs)
	}
	return 0
}

// Push enqueues an item on its lane; it never blocks. Pushing to a closed
// mailbox is a silent no-op (shutdown races are benign).
func (m *mailbox) Push(item any) {
	m.mu.Lock()
	if !m.closed {
		if w := dataWeight(item); w > 0 {
			m.data = append(m.data, item)
			m.dataDepth += w
			if m.qdelay != nil {
				m.dataTS = append(m.dataTS, time.Now().UnixNano())
			}
			if m.dataDepth > m.dataHigh {
				m.dataHigh = m.dataDepth
			}
			if m.dataCap > 0 && m.dataDepth > m.dataCap {
				m.overflow++
			}
		} else {
			m.ctl = append(m.ctl, item)
		}
		m.cond.Signal()
	}
	m.mu.Unlock()
}

// Pop dequeues the oldest control item, or the oldest data item when the
// control lane is empty, blocking while both lanes are empty. It returns
// ok=false once the mailbox is closed and drained.
func (m *mailbox) Pop() (any, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.ctl) == 0 && len(m.data) == 0 && !m.closed {
		m.cond.Wait()
	}
	if len(m.ctl) > 0 {
		item := m.ctl[0]
		m.ctl = m.ctl[1:]
		return item, true
	}
	if len(m.data) > 0 {
		item := m.data[0]
		m.data = m.data[1:]
		m.dataDepth -= dataWeight(item)
		if m.qdelay != nil && len(m.dataTS) > 0 {
			m.qdelay.Observe(time.Now().UnixNano() - m.dataTS[0])
			m.dataTS = m.dataTS[1:]
		}
		return item, true
	}
	return nil, false
}

// Len reports the queued item count across both lanes.
func (m *mailbox) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.ctl) + len(m.data)
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
	m.ctl = nil
	m.data = nil
	m.dataTS = nil
	m.dataDepth = 0
	m.dataHigh = 0
	m.closed = false
	m.mu.Unlock()
}
