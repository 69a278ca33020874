package vclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Manual is a Clock whose time only moves when Advance or Set is called.
// It makes the ticker tests deterministic.
type Manual struct {
	now atomic.Int64
}

var _ Clock = (*Manual)(nil)

// NewManual returns a Manual clock starting at start ticks.
func NewManual(start int64) *Manual {
	m := &Manual{}
	m.now.Store(start)
	return m
}

// Now returns the current manual time.
func (m *Manual) Now() int64 { return m.now.Load() }

// Advance moves the clock forward by d ticks and returns the new time.
func (m *Manual) Advance(d int64) int64 { return m.now.Add(d) }

// Set jumps the clock to t ticks.
func (m *Manual) Set(t int64) { m.now.Store(t) }

func TestWallMonotonic(t *testing.T) {
	w := NewWall()
	a := w.Now()
	time.Sleep(time.Millisecond)
	b := w.Now()
	if b <= a {
		t.Fatalf("wall clock not monotonic: %d then %d", a, b)
	}
}

func TestManual(t *testing.T) {
	m := NewManual(100)
	if m.Now() != 100 {
		t.Fatalf("Now = %d, want 100", m.Now())
	}
	if got := m.Advance(5); got != 105 {
		t.Fatalf("Advance returned %d, want 105", got)
	}
	m.Set(42)
	if m.Now() != 42 {
		t.Fatalf("after Set, Now = %d, want 42", m.Now())
	}
}

func TestTickerStrictlyIncreasing(t *testing.T) {
	m := NewManual(0)
	tick := NewTicker(m)
	prev := int64(-1)
	for i := 0; i < 100; i++ {
		got := tick.Next()
		if got <= prev {
			t.Fatalf("tick %d: %d <= previous %d", i, got, prev)
		}
		prev = got
	}
	// Clock jumps forward: ticker follows.
	m.Set(1000)
	if got := tick.Next(); got < 1000 {
		t.Fatalf("after clock jump, Next = %d, want >= 1000", got)
	}
}

func TestTickerConcurrentUnique(t *testing.T) {
	tick := NewTicker(NewManual(0))
	const workers, perWorker = 8, 500
	results := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int64, perWorker)
			for i := range out {
				out[i] = tick.Next()
			}
			results[w] = out
		}()
	}
	wg.Wait()
	seen := make(map[int64]bool, workers*perWorker)
	for _, out := range results {
		for _, v := range out {
			if seen[v] {
				t.Fatalf("duplicate tick %d", v)
			}
			seen[v] = true
		}
	}
}
