package main

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// fakeClock is a pacer clock that only moves when told to; sleeps overrun
// by a fixed amount, as real ones do.
type fakeClock struct {
	t         int64
	oversleep int64
}

func (c *fakeClock) now() int64 { return c.t }

func (c *fakeClock) sleepUntil(t int64) { c.t = t + c.oversleep }

func TestPacerChargesFromDueTime(t *testing.T) {
	const ms = int64(time.Millisecond)
	clk := &fakeClock{oversleep: ms / 5}
	p := pacer{clk: clk, start: 0, interval: 5 * ms}
	sendTakes := []int64{1 * ms, 1 * ms, 12 * ms, 1 * ms, 1 * ms, 1 * ms}
	// Send 2 blocks for 12 ms, across the due times of sends 3 and 4.
	wantDue := []int64{0, 5 * ms, 10 * ms, 15 * ms, 20 * ms, 25 * ms}
	wantLate := []int64{0, ms / 5, ms / 5, 0, 0, ms / 5}
	wantLatency := []int64{1 * ms, 1*ms + ms/5, 12*ms + ms/5, 8*ms + ms/5, 4*ms + ms/5, 1*ms + ms/5}
	for k, d := range sendTakes {
		due, late := p.next()
		if due != wantDue[k] {
			t.Errorf("send %d: due %d, want %d (the schedule must not slip when a send blocks)", k, due, wantDue[k])
		}
		if late != wantLate[k] {
			t.Errorf("send %d: lateness %d, want %d (time blocked in the previous send is not the generator's)", k, late, wantLate[k])
		}
		clk.t += d // inside Send
		p.sent()
		if got := clk.t - due; got != wantLatency[k] {
			t.Errorf("send %d: latency from due time %d, want %d", k, got, wantLatency[k])
		}
	}
}

// The sink charges a record's latency from ingestDue(key); that must be
// the due time its connection's pacer sent the record's batch at.
func TestIngestDueIsThePacersDue(t *testing.T) {
	const start = int64(7 * time.Second)
	for c := 0; c < ingestConns; c++ {
		p := pacer{clk: &fakeClock{}, start: ingestConnStart(start, c), interval: int64(ingestInterval)}
		for batch := int64(0); batch < 50; batch++ {
			due, _ := p.next()
			for i := int64(0); i < ingestBatch; i++ {
				if got := ingestDue(start, ingestKey(c, batch*ingestBatch+i)); got != due {
					t.Fatalf("connection %d, batch %d, record %d: ingestDue %d, the pacer sent it at %d", c, batch, i, got, due)
				}
			}
			p.sent()
		}
	}
	if ingestConnStart(start, 1) == ingestConnStart(start, 0) {
		t.Error("the connections' schedules are not offset")
	}
}

func TestWindowNeverExceeded(t *testing.T) {
	const size, total = 8, 20000
	s := &sink{wake: make(chan struct{}, 1)}
	abort := make(chan struct{})
	w := newWindow(size, s, abort, 5*time.Second)
	done := make(chan struct{})
	go func() { // the system: finalizes emitted events one by one, at its own pace
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		for s.finals.Load() < total {
			if s.emitted.Load() == s.finals.Load() || rng.Intn(4) == 0 {
				runtime.Gosched()
				continue
			}
			s.finals.Add(1)
			select {
			case s.wake <- struct{}{}:
			default:
			}
		}
	}()
	rng := rand.New(rand.NewSource(2))
	for s.emitted.Load() < total {
		n := int64(1 + rng.Intn(3))
		if !w.reserve(n) {
			t.Fatal("reserve reported an abort")
		}
		s.emitted.Add(n)
		if in := s.emitted.Load() - s.finals.Load(); in > size {
			t.Fatalf("%d events in flight, window is %d", in, size)
		}
	}
	<-done
	if w.peak > size || w.peak < size-2 {
		t.Errorf("peak in flight %d, want the window of %d to have been filled and never exceeded", w.peak, size)
	}
	if w.stalls != 0 || w.writtenOff != 0 {
		t.Errorf("stalls=%d writtenOff=%d on a system that never stalled", w.stalls, w.writtenOff)
	}
}

func TestWindowWritesOffAStall(t *testing.T) {
	s := &sink{wake: make(chan struct{}, 1)}
	abort := make(chan struct{})
	w := newWindow(2, s, abort, 10*time.Millisecond)
	for i := 0; i < 2; i++ {
		if !w.reserve(1) {
			t.Fatal("aborted")
		}
		s.emitted.Add(1)
	}
	// Nothing finalizes: after one stall period the gate gives the two
	// events up and lets the generator go on.
	if !w.reserve(1) {
		t.Fatal("aborted")
	}
	if w.stalls != 1 || w.writtenOff != 2 {
		t.Errorf("stalls=%d writtenOff=%d, want 1 and 2", w.stalls, w.writtenOff)
	}
	if w.await(1) {
		t.Error("await reported success for a final that never came")
	}
	close(abort)
	s.emitted.Add(2)
	if w.reserve(1) {
		t.Error("reserve succeeded after the watchdog aborted the run")
	}
}
