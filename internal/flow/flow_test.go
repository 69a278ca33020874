package flow

import (
	"sync"
	"testing"
	"time"
)

func TestCreditGateWindow(t *testing.T) {
	g := NewCreditGate(3)
	for i := 0; i < 3; i++ {
		if !g.AcquireN(1) {
			t.Fatalf("acquire %d failed inside window", i)
		}
	}
	if got := g.Outstanding(); got != 3 {
		t.Fatalf("Outstanding = %d, want 3", got)
	}
	g.Grant(2)
	if got := g.Outstanding(); got != 1 {
		t.Fatalf("Outstanding after grant = %d, want 1", got)
	}
	// Grants are clamped at the window.
	g.Grant(100)
	if got := g.Outstanding(); got != 0 {
		t.Fatalf("Outstanding after over-grant = %d, want 0", got)
	}
}

func TestCreditGateBlockingAcquire(t *testing.T) {
	g := NewCreditGate(1)
	if !g.Acquire() {
		t.Fatal("first acquire failed")
	}
	done := make(chan bool, 1)
	go func() { done <- g.Acquire() }()
	select {
	case <-done:
		t.Fatal("second acquire did not block")
	case <-time.After(20 * time.Millisecond):
	}
	g.Grant(1)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("acquire returned false after grant")
		}
	case <-time.After(time.Second):
		t.Fatal("acquire still blocked after grant")
	}
}

func TestCreditGateResetAndClose(t *testing.T) {
	g := NewCreditGate(2)
	g.Acquire()
	g.Acquire()
	g.Reset()
	if got := g.Outstanding(); got != 0 {
		t.Fatalf("Outstanding after reset = %d, want 0", got)
	}
	g.Acquire()
	g.Acquire()
	done := make(chan bool, 1)
	go func() { done <- g.Acquire() }()
	time.Sleep(10 * time.Millisecond)
	g.Close()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("acquire succeeded on closed gate")
		}
	case <-time.After(time.Second):
		t.Fatal("close did not release blocked acquire")
	}
	if g.Acquire() {
		t.Fatal("acquire succeeded after close")
	}
}

func TestTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewTokenBucket(10, 2) // 10/s, burst 2
	if ok, _ := b.Take(now); !ok {
		t.Fatal("burst token 1 denied")
	}
	if ok, _ := b.Take(now); !ok {
		t.Fatal("burst token 2 denied")
	}
	ok, wait := b.Take(now)
	if ok {
		t.Fatal("token granted past burst")
	}
	if wait <= 0 || wait > 100*time.Millisecond {
		t.Fatalf("wait = %v, want (0, 100ms]", wait)
	}
	if ok, _ := b.Take(now.Add(100 * time.Millisecond)); !ok {
		t.Fatal("token denied after refill interval")
	}
	// Refill is clamped at burst: a long idle period grants only 2.
	now = now.Add(time.Hour)
	b.Take(now)
	b.Take(now)
	if ok, _ := b.Take(now); ok {
		t.Fatal("bucket exceeded burst after idle")
	}
}

func TestAIMD(t *testing.T) {
	a := NewAIMD(10, 100, 5, 0.5)
	if r := a.Observe(true); r != 50 {
		t.Fatalf("rate after decrease = %v, want 50", r)
	}
	if r := a.Observe(false); r != 55 {
		t.Fatalf("rate after increase = %v, want 55", r)
	}
	for i := 0; i < 19; i++ {
		a.Observe(true)
	}
	if r := a.Observe(true); r != 10 {
		t.Fatalf("rate not floored: %v, want 10", r)
	}
	for i := 0; i < 99; i++ {
		a.Observe(false)
	}
	if r := a.Observe(false); r != 100 {
		t.Fatalf("rate not capped: %v, want 100", r)
	}
}

func TestAdmissionShed(t *testing.T) {
	a := NewAdmission(&Limits{AdmitRate: 1000, AdmitBurst: 2, Shed: true}, nil)
	fake := time.Unix(0, 0)
	a.now = func() time.Time { return fake }
	if got := a.AdmitN(1); got != Admitted {
		t.Fatalf("admit 1 = %v, want Admitted", got)
	}
	if got := a.AdmitN(1); got != Admitted {
		t.Fatalf("admit 2 = %v, want Admitted", got)
	}
	if got := a.AdmitN(1); got != Shed {
		t.Fatalf("admit 3 = %v, want Shed", got)
	}
	if a.Admitted() != 2 || a.Shedded() != 1 {
		t.Fatalf("counters = (%d admitted, %d shed), want (2, 1)", a.Admitted(), a.Shedded())
	}
}

func TestAdmissionBlocksAndStops(t *testing.T) {
	a := NewAdmission(&Limits{AdmitRate: 0.001, AdmitBurst: 1}, nil)
	if got := a.AdmitN(1); got != Admitted {
		t.Fatalf("first admit = %v, want Admitted", got)
	}
	done := make(chan Outcome, 1)
	go func() { done <- a.AdmitN(1) }()
	select {
	case got := <-done:
		t.Fatalf("second admit returned %v without waiting", got)
	case <-time.After(20 * time.Millisecond):
	}
	a.Close()
	select {
	case got := <-done:
		if got != Stopped {
			t.Fatalf("admit after close = %v, want Stopped", got)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not interrupt blocked AdmitN")
	}
}

func TestAdmissionAIMDBacksOff(t *testing.T) {
	congested := true
	a := NewAdmission(&Limits{AdmitRate: 1000, AdmitBurst: 1, Shed: true, AIMD: true},
		func() bool { return congested })
	a.pressureEvery = 1
	fake := time.Unix(0, 0)
	a.now = func() time.Time { return fake }
	for i := 0; i < 20; i++ {
		fake = fake.Add(time.Second)
		a.AdmitN(1)
	}
	if r := a.Rate(); r != 100 {
		t.Fatalf("rate under sustained congestion = %v, want floor 100 (AdmitRate/10)", r)
	}
	congested = false
	for i := 0; i < 100; i++ {
		fake = fake.Add(time.Second)
		a.AdmitN(1)
	}
	if r := a.Rate(); r <= 100 {
		t.Fatalf("rate did not recover after congestion cleared: %v", r)
	}
}

// admit is a worker's admission loop: try for a slot, and on refusal park
// until the throttle's state changes.
func admit(s *SpecThrottle, head func() bool) bool {
	for {
		gen := s.Gen()
		if ok, closed := s.TryAdmit(head); ok || closed {
			return ok
		}
		if !s.WaitSince(gen) {
			return false
		}
	}
}

func TestSpecThrottleCapAndHeadBypass(t *testing.T) {
	s := NewSpecThrottle(&Limits{MaxOpenSpec: 2})
	notHead := func() bool { return false }
	if !admit(s, notHead) || !admit(s, notHead) {
		t.Fatal("admits inside cap failed")
	}
	// A third non-head task parks...
	done := make(chan bool, 1)
	go func() { done <- admit(s, notHead) }()
	select {
	case <-done:
		t.Fatal("admit past cap did not block")
	case <-time.After(20 * time.Millisecond):
	}
	// ...but the commit head walks straight through.
	if ok, _ := s.TryAdmit(func() bool { return true }); !ok {
		t.Fatal("head task was throttled")
	}
	if open, _, _ := s.Snapshot(); open != 3 {
		t.Fatalf("open = %d, want 3", open)
	}
	s.Release(false)
	s.Release(false)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("parked admit failed after release")
		}
	case <-time.After(time.Second):
		t.Fatal("release did not wake parked admit")
	}
	if _, _, throttled := s.Snapshot(); throttled == 0 {
		t.Fatal("throttled count = 0 after a refused admission")
	}
}

func TestSpecThrottleAdaptsToAborts(t *testing.T) {
	s := NewSpecThrottle(&Limits{MaxOpenSpec: 8})
	head := func() bool { return true }
	// One full window of aborts halves the cap.
	for i := 0; i < s.window; i++ {
		s.TryAdmit(head)
		s.Release(true)
	}
	if _, cap, _ := s.Snapshot(); cap != 4 {
		t.Fatalf("cap after abort window = %d, want 4", cap)
	}
	// Keep aborting: cap floors at one.
	for i := 0; i < 4*s.window; i++ {
		s.TryAdmit(head)
		s.Release(true)
	}
	if _, cap, _ := s.Snapshot(); cap != 1 {
		t.Fatalf("cap not floored: %d, want 1", cap)
	}
	// Clean windows recover the cap one step at a time.
	for i := 0; i < 16*s.window; i++ {
		s.TryAdmit(head)
		s.Release(false)
	}
	if _, cap, _ := s.Snapshot(); cap != 8 {
		t.Fatalf("cap did not recover: %d, want 8", cap)
	}
}

func TestSpecThrottleConcurrent(t *testing.T) {
	s := NewSpecThrottle(&Limits{MaxOpenSpec: 4})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if admit(s, func() bool { return false }) {
				s.Release(false)
			}
		}()
	}
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent admit/release deadlocked")
	}
	if open, _, _ := s.Snapshot(); open != 0 {
		t.Fatalf("open = %d after all releases, want 0", open)
	}
}
