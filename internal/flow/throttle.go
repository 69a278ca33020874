package flow

import "sync"

// SpecThrottle caps the number of open speculative tasks on one node and
// adapts the cap to the observed abort rate: a window with many aborts
// halves the cap (speculation is being wasted), a clean window raises it
// by one (speculation is paying off). This operationalizes the paper's §4
// promptness-vs-waste trade-off.
//
// Deadlock safety: strict in-order commit means the task at the commit
// head must always be able to execute, even when younger tasks hold every
// slot. TryAdmit therefore never refuses a caller that reports head ==
// true, and a worker parked in WaitSince wakes whenever the commit cursor
// advances, so a task that becomes the head while parked gets through.
type SpecThrottle struct {
	mu   sync.Mutex
	cond *sync.Cond

	max  int // configured ceiling
	cap  int // current adaptive cap, at least 1
	open int

	// abort-rate window
	window  int
	commits int
	aborts  int

	gen       uint64 // state generation, bumped on every change (see WaitSince)
	throttled uint64 // number of admissions that had to wait or defer
	closed    bool
}

// abortHighWater is the abort fraction per window above which the cap is
// halved.
const abortHighWater = 0.3

// NewSpecThrottle builds a throttle from Limits. Returns nil when
// speculation throttling is not configured.
func NewSpecThrottle(l *Limits) *SpecThrottle {
	if l == nil || l.MaxOpenSpec <= 0 {
		return nil
	}
	s := &SpecThrottle{max: l.MaxOpenSpec, cap: l.MaxOpenSpec, window: 16}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// TryAdmit takes a slot if one is free (open < cap), or bypasses the cap
// when head reports the task is the commit head, or refuses. It never
// blocks: a worker pool where parking every worker would strand the commit
// head in the run queue with nobody to execute it defers a refused task
// instead and parks via WaitSince.
func (s *SpecThrottle) TryAdmit(head func() bool) (admitted, closed bool) {
	if s == nil {
		return true, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, true
	}
	if s.open >= s.cap && !head() {
		s.throttled++
		return false, false
	}
	s.open++
	return true, false
}

// Gen returns the current state generation. Capture it before a TryAdmit
// attempt; if the attempt fails, WaitSince(gen) blocks only if nothing has
// changed since, so a slot release or commit-cursor advance between the
// two calls is never lost.
func (s *SpecThrottle) Gen() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// WaitSince blocks until the throttle's state has changed relative to gen
// (slot released, cap adapted, commit cursor advanced, task queued) or the
// throttle closes. It reports whether the throttle is still open.
func (s *SpecThrottle) WaitSince(gen uint64) bool {
	if s == nil {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed && s.gen == gen {
		s.cond.Wait()
	}
	return !s.closed
}

// Release returns one slot, recording whether the task committed or
// aborted, and retunes the cap at window boundaries.
func (s *SpecThrottle) Release(aborted bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.open > 0 {
		s.open--
	}
	s.observeLocked(aborted)
	s.gen++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Observe feeds one outcome sample without releasing a slot — used for
// re-executions, where the task keeps its slot but the aborted attempt
// still counts as speculation waste.
func (s *SpecThrottle) Observe(aborted bool) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.observeLocked(aborted)
	s.gen++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Wake re-evaluates all parked admissions. The committer calls it every
// time the commit cursor advances so a parked task that just became the
// commit head gets through its head-bypass even when no slot was
// released (e.g. the previous head was cancelled before ever executing);
// the dispatcher calls it after queuing new work so deferred workers
// re-pop — the fresh task may be the commit head they are starving.
func (s *SpecThrottle) Wake() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.gen++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// observeLocked updates the abort window and adapts the cap. Caller
// holds s.mu.
func (s *SpecThrottle) observeLocked(aborted bool) {
	if aborted {
		s.aborts++
	} else {
		s.commits++
	}
	if s.commits+s.aborts >= s.window {
		if float64(s.aborts) > abortHighWater*float64(s.commits+s.aborts) {
			s.cap = max(s.cap/2, 1)
		} else if s.cap < s.max {
			s.cap++
		}
		s.commits, s.aborts = 0, 0
	}
}

// Reset clears occupancy and the abort window (crash recovery: all open
// tasks are gone) while keeping the adapted cap.
func (s *SpecThrottle) Reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.open = 0
	s.commits, s.aborts = 0, 0
	s.closed = false
	s.gen++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Close releases all waiters; subsequent TryAdmit calls report closed.
func (s *SpecThrottle) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.closed = true
	s.gen++
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Snapshot returns (open, cap, throttled-wait count).
func (s *SpecThrottle) Snapshot() (open, cap int, throttled uint64) {
	if s == nil {
		return 0, 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.open, s.cap, s.throttled
}
