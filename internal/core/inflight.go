package core

import (
	"sync"
	"sync/atomic"
)

// inflight is an engine's one count of work in flight, over all its nodes
// (Engine.Drain lists what it counts; DESIGN.md §9.9). Every hand-off adds what
// it creates before it settles what it consumed, so zero means nothing is.
type inflight struct {
	n       atomic.Int64
	waiters atomic.Int32 // wait calls under way: nobody else needs the zero signal
	mu      sync.Mutex
	zero    sync.Cond // L is mu
	stopped bool
}

func (f *inflight) add(k int) { f.n.Add(int64(k)) }

// settle retires k units of work in flight that n consumed; below zero, it fails n.
func (n *node) settle(k int) {
	f := &n.eng.inflight
	left := f.n.Add(-int64(k))
	if left <= 0 && f.waiters.Load() > 0 {
		f.mu.Lock()
		f.zero.Broadcast()
		f.mu.Unlock()
	}
	if left < 0 {
		n.fail(errInflightBelowZero)
	}
}

// wait blocks until nothing is in flight or the engine stops.
func (f *inflight) wait() {
	f.waiters.Add(1)
	defer f.waiters.Add(-1)
	f.mu.Lock()
	for f.n.Load() > 0 && !f.stopped {
		f.zero.Wait()
	}
	f.mu.Unlock()
}

// stop releases every wait, now and later.
func (f *inflight) stop() {
	f.mu.Lock()
	f.stopped = true
	f.zero.Broadcast()
	f.mu.Unlock()
}
