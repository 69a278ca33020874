package vclock

import (
	"sync/atomic"
	"time"
)

// Clock supplies timestamps in ticks. Implementations must be safe for
// concurrent use.
type Clock interface {
	// Now returns the current logical time in ticks.
	Now() int64
}

// Wall is a Clock backed by the OS monotonic clock, reporting nanoseconds
// since the clock was created.
type Wall struct {
	start time.Time
}

var _ Clock = (*Wall)(nil)

// NewWall returns a wall clock anchored at the current instant.
func NewWall() *Wall {
	return &Wall{start: time.Now()}
}

// Now returns nanoseconds elapsed since NewWall.
func (w *Wall) Now() int64 {
	return time.Since(w.start).Nanoseconds()
}

// Ticker hands out strictly increasing timestamps. Sources use it to
// assign event timestamps: even if two events are created in the same
// nanosecond they receive distinct, ordered ticks.
type Ticker struct {
	last atomic.Int64
	c    Clock
}

// NewTicker returns a Ticker drawing from c.
func NewTicker(c Clock) *Ticker {
	return &Ticker{c: c}
}

// Next returns a timestamp strictly greater than any previous Next result
// and not less than the underlying clock's current time.
func (t *Ticker) Next() int64 {
	for {
		now := t.c.Now()
		last := t.last.Load()
		if now <= last {
			now = last + 1
		}
		if t.last.CompareAndSwap(last, now) {
			return now
		}
	}
}
