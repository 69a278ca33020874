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

// engage opens n slots on an off throttle and feeds it a window of aborts.
func engage(t *testing.T, s *SpecThrottle, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if !s.Admit(false) {
			t.Fatal("an off throttle refused an admission")
		}
	}
	for i := 0; i < window; i++ {
		s.Observe(1, true)
	}
}

func TestThrottleStartsUncapped(t *testing.T) {
	var s SpecThrottle
	for i := 0; i < 1000; i++ {
		if !s.Admit(false) {
			t.Fatalf("admission %d refused by a new throttle", i)
		}
	}
	// Aborts below the high-water mark leave it off.
	for i := 0; i < 8*window; i++ {
		s.Release(1, i%window < window*3/10)
	}
	if open, cap, throttled := s.Snapshot(); open != 1000-8*window || cap != 0 || throttled != 0 {
		t.Fatalf("open %d cap %d throttled %d, want %d/0/0", open, cap, throttled, 1000-8*window)
	}
}

func TestThrottleEngagesAtHalfTheOpen(t *testing.T) {
	for _, c := range []struct{ open, cap int }{{0, 1}, {1, 1}, {3, 1}, {10, 5}, {1000, 500}} {
		var s SpecThrottle
		engage(t, &s, c.open)
		if _, cap, _ := s.Snapshot(); cap != c.cap {
			t.Errorf("%d open: cap %d after an abort window, want %d", c.open, cap, c.cap)
		}
	}
}

func TestSpecThrottleCapAndHeadBypass(t *testing.T) {
	var s SpecThrottle
	engage(t, &s, 4)
	s.Release(2, false)
	if open, cap, _ := s.Snapshot(); open != 2 || cap != 2 {
		t.Fatalf("open %d cap %d, want 2/2", open, cap)
	}
	// A third task that is not the commit head is refused...
	if s.Admit(false) {
		t.Fatal("admitted past the cap")
	}
	s.HoldBack(1)
	// ...but the commit head walks straight through.
	if !s.Admit(true) {
		t.Fatal("head task was throttled")
	}
	if open, _, _ := s.Snapshot(); open != 3 {
		t.Fatalf("open = %d, want 3", open)
	}
	s.Release(2, false)
	if !s.Admit(false) {
		t.Fatal("refused with a slot free after a release")
	}
	if open, _, throttled := s.Snapshot(); open != 2 || throttled != 1 {
		t.Fatalf("open %d throttled %d, want 2/1", open, throttled)
	}
}

func TestSpecThrottleAdaptsToAborts(t *testing.T) {
	var s SpecThrottle
	engage(t, &s, 16)
	if _, cap, _ := s.Snapshot(); cap != 8 {
		t.Fatalf("cap after abort window = %d, want 8", cap)
	}
	// Keep aborting: the cap halves per window and floors at one.
	for i := 0; i < 5*window; i++ {
		s.Observe(1, true)
	}
	if _, cap, _ := s.Snapshot(); cap != 1 {
		t.Fatalf("cap not floored: %d, want 1", cap)
	}
	// Clean windows recover the cap one step at a time, back to the open
	// count it engaged at...
	for want := 2; want <= 16; want++ {
		for i := 0; i < window; i++ {
			s.Observe(1, false)
		}
		if _, cap, _ := s.Snapshot(); cap != want {
			t.Fatalf("cap after a clean window = %d, want %d", cap, want)
		}
	}
	// ...and the next turns the throttle off.
	for i := 0; i < window; i++ {
		s.Observe(1, false)
	}
	if _, cap, _ := s.Snapshot(); cap != 0 {
		t.Fatalf("cap past the engaging open count = %d, want 0 (off)", cap)
	}
}

// TestThrottleCleanWindowsTurnItOffAndReleaseParked: a task held back at
// the cap is admitted once clean windows have turned the throttle off.
func TestThrottleCleanWindowsTurnItOffAndReleaseParked(t *testing.T) {
	var s SpecThrottle
	engage(t, &s, 2)
	// The first clean window raises the cap to the two open tasks, which
	// still refuses a third...
	for i := 0; i < window; i++ {
		s.Observe(1, false)
	}
	if s.Admit(false) {
		t.Fatal("admitted past the cap")
	}
	// ...and the second turns the throttle off, which lets it through.
	for i := 0; i < window; i++ {
		s.Observe(1, false)
	}
	if !s.Admit(false) {
		t.Fatal("refused with the throttle off")
	}
	if open, cap, _ := s.Snapshot(); open != 3 || cap != 0 {
		t.Fatalf("open %d cap %d, want 3/0", open, cap)
	}
}

func TestThrottleResetClearsOccupancy(t *testing.T) {
	var s SpecThrottle
	engage(t, &s, 6)
	for i := 0; i < window-6; i++ { // most of a window of aborts...
		s.Observe(1, true)
	}
	s.Reset()
	if open, cap, _ := s.Snapshot(); open != 0 || cap != 3 {
		t.Fatalf("open %d cap %d after Reset, want 0/3", open, cap)
	}
	for i := 0; i < 3; i++ {
		if !s.Admit(false) {
			t.Fatalf("admission %d refused inside the kept cap", i)
		}
	}
	if s.Admit(false) {
		t.Fatal("admission past the kept cap")
	}
	// ...died with the crash: six clean outcomes complete no window.
	for i := 0; i < 6; i++ {
		s.Observe(1, false)
	}
	if _, cap, _ := s.Snapshot(); cap != 3 {
		t.Fatalf("cap %d after six outcomes past a Reset, want 3", cap)
	}
}

// TestSpecThrottleConcurrent: the owner takes and returns slots while other
// goroutines read the position, as the flow_throttle* series and Pressure
// do; under -race this checks that Snapshot reads only what is atomic.
func TestSpecThrottleConcurrent(t *testing.T) {
	var s SpecThrottle
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if open, cap, _ := s.Snapshot(); open < 0 || cap < 0 {
					t.Errorf("open %d cap %d", open, cap)
					return
				}
			}
		}()
	}
	for i := 0; i < 20*window; i++ {
		if s.Admit(i%8 == 0) {
			s.Release(1, i%3 == 0)
		} else {
			s.HoldBack(1)
		}
	}
	close(stop)
	wg.Wait()
	if open, _, _ := s.Snapshot(); open != 0 {
		t.Fatalf("open = %d after all releases, want 0", open)
	}
}
