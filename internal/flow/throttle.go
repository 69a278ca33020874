package flow

import "sync/atomic"

// SpecThrottle caps the number of open speculative tasks on one node when,
// and only while, speculation is being wasted. It starts off (uncapped). A
// window of outcomes whose abort fraction passes abortHighWater engages it
// with a cap of half the tasks open at that moment, and further such
// windows halve the cap; a clean window raises it by one, and once clean
// windows have raised it back to the open count it engaged at, the next
// turns it off. This operationalizes the paper's §4 promptness-vs-waste
// trade-off from the abort rate alone.
//
// One goroutine owns it — the node's dispatcher, which takes a task's slot
// as it queues the task for execution and sees every slot come back and
// every outcome — so the window is plain fields. open, cap and throttled
// are atomic only because Snapshot reads them from other goroutines; only
// the owner stores them. The zero value is off.
type SpecThrottle struct {
	open      atomic.Int64
	cap       atomic.Int64  // 0: off
	throttled atomic.Uint64 // tasks held back for want of a slot

	outcomes, aborts uint32 // since the last window boundary
	engaged          int64  // tasks open when the throttle last engaged
}

const (
	// window is the number of outcomes the abort fraction is judged over.
	window = 16
	// abortHighWater is the abort fraction per window above which the
	// throttle engages, or halves its cap.
	abortHighWater = 0.3
)

// Admit takes a slot if the throttle is off, a slot is free (open < cap) or
// head reports that the task is the commit head, and reports whether it
// did. The head always gets one: strict in-order commit cannot progress
// without it, however many younger tasks hold the slots.
func (s *SpecThrottle) Admit(head bool) bool {
	if c := s.cap.Load(); c != 0 && s.open.Load() >= c && !head {
		return false
	}
	s.open.Add(1)
	return true
}

// HoldBack counts n tasks held back for want of a slot.
func (s *SpecThrottle) HoldBack(n int) { s.throttled.Add(uint64(n)) }

// Release returns n slots whose tasks committed, or aborted, and counts
// them as outcomes of the abort window.
func (s *SpecThrottle) Release(n int, aborted bool) {
	s.open.Add(-int64(n))
	s.Observe(n, aborted)
}

// Observe counts n outcomes without releasing a slot — re-executions keep
// theirs, but each aborted attempt counts as speculation waste — and
// retunes the cap when they complete a window.
func (s *SpecThrottle) Observe(n int, aborted bool) {
	s.outcomes += uint32(n)
	if aborted {
		s.aborts += uint32(n)
	}
	if s.outcomes >= window {
		s.retune()
	}
}

// retune judges the outcomes since the last window boundary: too many
// aborts engage the throttle at half the open tasks or halve its cap; clean
// outcomes raise the cap by one per window's worth (a commit group may
// complete several at once), or turn the throttle off once the cap is back
// at the open count it engaged at. The part-window left over counts next
// time.
func (s *SpecThrottle) retune() {
	total, aborts := s.outcomes, s.aborts
	s.outcomes, s.aborts = total%window, 0
	c := s.cap.Load()
	switch {
	case float64(aborts) > abortHighWater*float64(total):
		if c == 0 {
			s.engaged = s.open.Load()
			c = s.engaged
		}
		c = max(c/2, 1)
	case c == 0:
		return
	case c >= s.engaged:
		c = 0
	default:
		c = min(c+int64(total/window), s.engaged)
	}
	s.cap.Store(c)
}

// Reset clears occupancy and the abort window (crash recovery: all open
// tasks are gone) while keeping the adapted cap.
func (s *SpecThrottle) Reset() {
	s.open.Store(0)
	s.outcomes, s.aborts = 0, 0
}

// Snapshot returns (open, cap, held-back count); cap 0 means off.
func (s *SpecThrottle) Snapshot() (open, cap int, throttled uint64) {
	return int(s.open.Load()), int(s.cap.Load()), s.throttled.Load()
}
