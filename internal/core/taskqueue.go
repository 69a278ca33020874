package core

import (
	"slices"
	"sync"
)

// taskQueue is the per-node executor queue: a blocking min-heap handing
// workers the lowest-sequence task first. Arrival order is not good
// enough — conflict re-executions, and tasks the speculation throttle held
// back on the dispatcher, enter the queue behind younger tasks, and strict
// in-order commit makes the oldest task exactly the one the node cannot
// progress without. Seq-ordered scheduling guarantees that whenever the
// commit-head task is queued, the next free worker receives it. It also
// happens to be the promptness-optimal policy: executing oldest-first
// minimizes the speculation depth of everything else. Every task in it
// already holds its throttle slot: a worker blocks nowhere but in Pop.
type taskQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	heap   []*task
	closed bool
}

func newTaskQueue() *taskQueue {
	q := &taskQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push enqueues a task; pushing to a closed queue is a silent no-op
// (shutdown races are benign, mirroring mailbox semantics).
func (q *taskQueue) Push(t *task) {
	q.mu.Lock()
	if !q.closed {
		q.heap = append(q.heap, t)
		q.up(len(q.heap) - 1)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// PushAll enqueues a run of tasks under one lock acquisition — the
// batched-admission counterpart of Push.
func (q *taskQueue) PushAll(ts []*task) {
	if len(ts) == 0 {
		return
	}
	q.mu.Lock()
	if !q.closed {
		for _, t := range ts {
			q.heap = append(q.heap, t)
			q.up(len(q.heap) - 1)
		}
		if len(ts) == 1 {
			q.cond.Signal()
		} else {
			q.cond.Broadcast()
		}
	}
	q.mu.Unlock()
}

// Pop blocks for the lowest-sequence queued task. It returns ok=false
// once the queue is closed.
func (q *taskQueue) Pop() (*task, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.heap) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.heap) == 0 {
		return nil, false
	}
	return q.popMin(), true
}

// TryPop is Pop without the wait: nil when nothing is queued.
func (q *taskQueue) TryPop() *task {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.heap) == 0 {
		return nil
	}
	return q.popMin()
}

// Remove takes t off the queue and reports whether it was there: then no
// worker has popped it, nor will.
func (q *taskQueue) Remove(t *task) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	i := slices.Index(q.heap, t)
	if i < 0 {
		return false
	}
	last := len(q.heap) - 1
	q.heap[i] = q.heap[last]
	q.heap[last] = nil
	q.heap = q.heap[:last]
	if i < last {
		q.down(i)
		q.up(i)
	}
	return true
}

func (q *taskQueue) popMin() *task {
	t := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = nil
	q.heap = q.heap[:last]
	q.down(0)
	return t
}

// Close discards every queued task and wakes all blocked Pops: no worker
// starts another task, and a worker's run ends at the task it is executing.
// The tasks stay open on their node; a crash settles them.
func (q *taskQueue) Close() {
	q.mu.Lock()
	q.heap = nil
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Reopen makes a closed queue take pushes again.
func (q *taskQueue) Reopen() {
	q.mu.Lock()
	q.closed = false
	q.mu.Unlock()
}

func (q *taskQueue) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if q.heap[p].seq <= q.heap[i].seq {
			return
		}
		q.heap[p], q.heap[i] = q.heap[i], q.heap[p]
		i = p
	}
}

func (q *taskQueue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && q.heap[l].seq < q.heap[min].seq {
			min = l
		}
		if r < n && q.heap[r].seq < q.heap[min].seq {
			min = r
		}
		if min == i {
			return
		}
		q.heap[i], q.heap[min] = q.heap[min], q.heap[i]
		i = min
	}
}
