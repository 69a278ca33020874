package flow

import "sync"

// CreditGate bounds the number of in-flight data events on one edge. The
// sender side acquires one credit per event before transmitting; the
// receiver grants credits back as events leave its mailbox. When the
// window is exhausted Acquire blocks, which is what propagates
// backpressure hop by hop toward the source.
//
// Reset refills the window to its full size. It is called after a crash
// or a bridge reconnect: the receiver's volatile mailbox state is gone (or
// about to be rebuilt by replay), so outstanding credits refer to events
// that no longer occupy receiver memory. Without the refill, replay after
// recovery could wedge on credits that will never be granted back.
type CreditGate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	window int
	avail  int
	closed bool
	resets uint64
}

// NewCreditGate returns a gate with the given window. Window must be > 0.
func NewCreditGate(window int) *CreditGate {
	g := &CreditGate{window: window, avail: window}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Acquire blocks until one credit is available and consumes it. It
// returns false if the gate was closed, in which case no credit was
// consumed and the caller must not transmit.
func (g *CreditGate) Acquire() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.avail <= 0 && !g.closed {
		g.cond.Wait()
	}
	if g.closed {
		return false
	}
	g.avail--
	return true
}

// AcquireN blocks until n credits are available and consumes them all —
// one gate charge for a whole run. A run wider than the window could never
// be granted, so n above the window is a programming error and panics. It
// returns false if the gate was closed, in which case no credits were
// consumed.
func (g *CreditGate) AcquireN(n int) bool {
	if n <= 1 {
		return g.Acquire()
	}
	if n > g.window {
		panic("flow: AcquireN beyond the credit window")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.avail < n && !g.closed {
		g.cond.Wait()
	}
	if g.closed {
		return false
	}
	g.avail -= n
	return true
}

// Grant returns n credits to the window. Grants beyond the window size
// are clamped (a duplicate CREDIT frame after a reconnect must not grow
// the window permanently).
func (g *CreditGate) Grant(n int) {
	if n <= 0 {
		return
	}
	g.mu.Lock()
	g.avail += n
	if g.avail > g.window {
		g.avail = g.window
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Reset refills the window to full size and wakes all waiters.
func (g *CreditGate) Reset() {
	g.mu.Lock()
	g.avail = g.window
	g.resets++
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Resets reports how many times the window was refilled to full by
// Reset — the recovery profiler's attribution for the refill phase.
func (g *CreditGate) Resets() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.resets
}

// Close releases all waiters; subsequent Acquire calls fail fast.
func (g *CreditGate) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Outstanding returns the number of credits currently consumed (events
// believed in flight or queued at the receiver).
func (g *CreditGate) Outstanding() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.window - g.avail
}
