package main

import (
	"fmt"
	"sync/atomic"
	"time"
)

// window is the closed-loop gate: the generator may have at most size
// events emitted and not yet finalized. With size 1 it is the classic
// closed loop (next event after the previous final); larger sizes bound
// the backlog of a saturation run so its figure is sustained capacity and
// not emit-then-drain.
type window struct {
	size    int64
	emitted *atomic.Int64
	finals  *atomic.Int64
	wake    <-chan struct{} // nudged by the sink on every new final
	abort   <-chan struct{} // closed by the workload watchdog

	// stall is how long the gate waits without any new final before it
	// gives up on the events outstanding and lets the generator continue.
	// A final the system lost (ROADMAP open item 1) must not hang the run
	// or shrink the window for its remainder; the lost events still count
	// as failed when the run is checked.
	stall      time.Duration
	timer      *time.Timer
	writtenOff int64
	stalls     int64

	peak int64 // highest number in flight the gate ever allowed
}

func newWindow(size int64, s *sink, abort <-chan struct{}, stall time.Duration) *window {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &window{size: size, emitted: &s.emitted, finals: &s.finals, wake: s.wake,
		abort: abort, stall: stall, timer: t}
}

func (w *window) inFlight() int64 {
	return w.emitted.Load() - w.finals.Load() - w.writtenOff
}

// reserve blocks until n more events fit in the window and reports false
// if the run was aborted meanwhile. The caller emits right after.
func (w *window) reserve(n int64) bool {
	for w.inFlight()+n > w.size {
		before := w.finals.Load()
		if !w.timer.Stop() {
			select {
			case <-w.timer.C:
			default:
			}
		}
		w.timer.Reset(w.stall)
		select {
		case <-w.wake:
		case <-w.abort:
			return false
		case <-w.timer.C:
			if w.finals.Load() == before {
				w.writtenOff += w.inFlight()
				w.stalls++
			}
		}
	}
	if f := w.inFlight() + n; f > w.peak {
		w.peak = f
	}
	return true
}

// verdict closes the gate's books: a window that was ever exceeded is a
// harness error, and stalls it sat out are worth a note (the events given
// up on are counted by the checker if they never arrived).
func (w *window) verdict(r *result, name string) error {
	if w.peak > w.size {
		return fmt.Errorf("bench: %s had %d events in flight, window is %d", name, w.peak, w.size)
	}
	if w.stalls > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf("the system stalled %d times (no final for %v with the window full); %d events were given up on so the run could go on",
			w.stalls, w.stall, w.writtenOff))
	}
	return nil
}

// await blocks until target events are final. It reports false when the
// run was aborted or no final arrived for a whole stall period; what is
// still missing then is left to the checker.
func (w *window) await(target int64) bool {
	for w.finals.Load() < target {
		before := w.finals.Load()
		if !w.timer.Stop() {
			select {
			case <-w.timer.C:
			default:
			}
		}
		w.timer.Reset(w.stall)
		select {
		case <-w.wake:
		case <-w.abort:
			return false
		case <-w.timer.C:
			if w.finals.Load() == before {
				w.stalls++
				return false
			}
		}
	}
	return true
}

// clock is the time source of the open-loop pacer, so its test can run on
// a fake.
type clock interface {
	now() int64 // nanoseconds
	sleepUntil(t int64)
}

// pacer schedules an open loop: send k is due at start + k×interval no
// matter how long earlier sends took. Latency is charged from the due
// time, which counts the wait a stall imposes on later sends; lateness is
// how far the generator itself fell behind, not counting time it spent
// blocked inside the previous send.
type pacer struct {
	clk      clock
	start    int64
	interval int64
	k        int64
	free     int64 // when the previous send returned
}

// next waits for the next send's due time and returns it together with
// the generator's lateness.
func (p *pacer) next() (due, late int64) {
	due = p.start + p.k*p.interval
	p.k++
	now := p.clk.now()
	if now < due {
		p.clk.sleepUntil(due)
		now = p.clk.now()
	}
	ready := due
	if p.free > ready {
		ready = p.free
	}
	return due, now - ready
}

// sent records that the send begun after next has returned.
func (p *pacer) sent() { p.free = p.clk.now() }

// sinkClock paces on the harness clock.
type sinkClock struct{ s *sink }

func (c sinkClock) now() int64 { return c.s.now() }

func (c sinkClock) sleepUntil(t int64) { time.Sleep(time.Duration(t - c.s.now())) }
