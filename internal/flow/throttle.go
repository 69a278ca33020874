package flow

import (
	"sync"
	"sync/atomic"
)

// SpecThrottle caps the number of open speculative tasks on one node when,
// and only while, speculation is being wasted. It starts off (uncapped). A
// window of outcomes whose abort fraction passes abortHighWater engages it
// with a cap of half the tasks open at that moment, and further such
// windows halve the cap; a clean window raises it by one, and once clean
// windows have raised it back to the open count it engaged at, the next
// turns it off. This operationalizes the paper's §4 promptness-vs-waste
// trade-off from the abort rate alone.
//
// While off, admission, release and outcome samples are atomic counter
// updates: the mutex and cond are taken only while engaged, at a window
// boundary, or to wake a worker parked on a refusal.
//
// Deadlock safety: strict in-order commit means the task at the commit
// head must always be able to execute, even when younger tasks hold every
// slot. TryAdmit therefore never refuses a caller that reports head ==
// true, and a worker parked in WaitSince wakes whenever the commit cursor
// advances, so a task that becomes the head while parked gets through.
type SpecThrottle struct {
	open atomic.Int64
	cap  atomic.Int64 // 0: off
	// outcomes counts the outcomes observed (low 32 bits) and the aborts
	// among them (high 32); a carry out of the low half adds one abort per
	// 2³² outcomes, which no window notices.
	outcomes  atomic.Uint64
	parked    atomic.Int64  // callers between a refusal and the end of their WaitSince
	throttled atomic.Uint64 // admissions refused

	mu       sync.Mutex
	cond     *sync.Cond
	gen      uint64 // bumped on every change a parked caller waits for
	windowAt uint64 // outcomes at the last window boundary
	engaged  int64  // tasks open when the throttle last engaged
	closed   bool
}

const (
	// window is the number of outcomes the abort fraction is judged over.
	window = 16
	// abortHighWater is the abort fraction per window above which the
	// throttle engages, or halves its cap.
	abortHighWater = 0.3
)

// NewSpecThrottle returns a throttle that is off.
func NewSpecThrottle() *SpecThrottle {
	s := &SpecThrottle{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// TryAdmit takes a slot if the throttle is off, a slot is free (open <
// cap) or head reports that the task is the commit head; otherwise it
// refuses and returns the generation to pass to WaitSince, which a refused
// caller must call. It never blocks: a worker pool where parking every
// worker would strand the commit head in the run queue with nobody to
// execute it defers a refused task instead and parks via WaitSince. A
// closed throttle refuses every caller it would have capped.
func (s *SpecThrottle) TryAdmit(head func() bool) (gen uint64, ok bool) {
	if s.cap.Load() == 0 {
		s.open.Add(1)
		return 0, true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Counted as parked before the checks: a Release or Wake that misses
	// this count changed what the checks read before they read it, and
	// one that sees it moves gen under s.mu.
	s.parked.Add(1)
	if c := s.cap.Load(); !s.closed && (c == 0 || s.open.Load() < c || head()) {
		s.parked.Add(-1)
		s.open.Add(1)
		return 0, true
	}
	s.throttled.Add(1)
	return s.gen, false
}

// WaitSince blocks, after a refused TryAdmit, until the throttle's state
// has changed relative to gen (slot released, cap adapted, commit cursor
// advanced, task queued), ready reports true or the throttle closes. ready
// is the caller's own view of what a Wake would announce — a worker's is
// "the commit head is queued" — and closes the gap between a change made
// before the refusal was counted and the park. It reports whether the
// throttle is still open.
func (s *SpecThrottle) WaitSince(gen uint64, ready func() bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && s.gen == gen && !ready() {
		s.cond.Wait()
	}
	s.parked.Add(-1)
	return !s.closed
}

// Release returns n slots whose tasks committed, or aborted, and counts
// them as outcomes of the abort window.
func (s *SpecThrottle) Release(n int, aborted bool) {
	s.open.Add(-int64(n))
	s.Observe(n, aborted)
	s.Wake()
}

// Wake re-evaluates parked admissions, if there are any. The committer
// calls it every time the commit cursor advances so a parked task that
// just became the commit head gets through its head-bypass even when no
// slot was released (e.g. the previous head was cancelled before ever
// executing); the dispatcher calls it after queuing new work so deferred
// workers re-pop — the fresh task may be the commit head they are
// starving.
func (s *SpecThrottle) Wake() {
	if s.parked.Load() == 0 {
		return
	}
	s.mu.Lock()
	s.gen++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Observe counts n outcomes without releasing a slot — re-executions keep
// theirs, but each aborted attempt counts as speculation waste — and
// retunes the cap when they complete a window.
func (s *SpecThrottle) Observe(n int, aborted bool) {
	d := uint64(n)
	if aborted {
		d |= d << 32
	}
	w := uint32(s.outcomes.Add(d))
	if w/window != (w-uint32(n))/window {
		s.retune()
	}
}

// retune judges the outcomes since the last window boundary, if a whole
// window has passed: too many aborts engage the throttle at half the open
// tasks or halve its cap; clean outcomes raise the cap by one per window's
// worth (a commit group may complete several at once), or turn the
// throttle off once the cap is back at the open count it engaged at.
func (s *SpecThrottle) retune() {
	s.mu.Lock()
	w := s.outcomes.Load()
	total := uint32(w) - uint32(s.windowAt)
	aborts := uint32(w>>32) - uint32(s.windowAt>>32)
	if total < window { // a concurrent crosser judged this window already
		s.mu.Unlock()
		return
	}
	s.windowAt = w - uint64(total%window) // the part-window left over counts next time
	c := s.cap.Load()
	switch {
	case float64(aborts) > abortHighWater*float64(total):
		if c == 0 {
			s.engaged = s.open.Load()
			c = s.engaged
		}
		c = max(c/2, 1)
	case c == 0:
		s.mu.Unlock()
		return
	case c >= s.engaged:
		c = 0
	default:
		c = min(c+int64(total/window), s.engaged)
	}
	s.cap.Store(c)
	s.gen++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Reset clears occupancy and the abort window (crash recovery: all open
// tasks are gone) while keeping the adapted cap, and reopens the throttle.
func (s *SpecThrottle) Reset() {
	s.mu.Lock()
	s.open.Store(0)
	s.windowAt = s.outcomes.Load()
	s.closed = false
	s.gen++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Close releases all waiters; TryAdmit then refuses whom it would have
// capped, and WaitSince returns false.
func (s *SpecThrottle) Close() {
	s.mu.Lock()
	s.closed = true
	s.gen++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Snapshot returns (open, cap, throttled-wait count); cap 0 means off.
func (s *SpecThrottle) Snapshot() (open, cap int, throttled uint64) {
	return int(s.open.Load()), int(s.cap.Load()), s.throttled.Load()
}
