package procharness

import (
	"fmt"
	"sync"
	"time"
)

// SinkEvent is one externalized sink output with the wall time the
// harness observed its SINK line. Wall anchoring is what makes the
// timeline usable for recovery measurement: event timestamps inside the
// engine are virtual, so before/during/after a fault can only be told
// apart by when outputs actually appeared.
type SinkEvent struct {
	At     time.Time
	Worker string
	ID     string
}

// Sinks aggregates "SINK <name> <id>" lines across worker processes:
// identity set with multiplicity (a finalized event printed twice means
// duplicate suppression leaked), per-worker counts (to pick a fault
// victim), and the wall-anchored timeline.
type Sinks struct {
	mu       sync.Mutex
	counts   map[string]int
	byWorker map[string]map[string]int // id → worker → prints
	per      map[string]int
	timeline []SinkEvent
}

// NewSinks returns an empty recorder.
func NewSinks() *Sinks {
	return &Sinks{
		counts:   make(map[string]int),
		byWorker: make(map[string]map[string]int),
		per:      make(map[string]int),
	}
}

// Record notes one SINK line from worker.
func (s *Sinks) Record(worker, id string) {
	now := time.Now()
	s.mu.Lock()
	s.counts[id]++
	if s.byWorker[id] == nil {
		s.byWorker[id] = make(map[string]int)
	}
	s.byWorker[id][worker]++
	s.per[worker]++
	s.timeline = append(s.timeline, SinkEvent{At: now, Worker: worker, ID: id})
	s.mu.Unlock()
}

// Distinct reports the number of distinct externalized identities.
func (s *Sinks) Distinct() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.counts)
}

// Busiest returns a worker that has printed at least min SINK lines, or
// "" when none has yet.
func (s *Sinks) Busiest(min int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for w, n := range s.per {
		if n >= min {
			return w
		}
	}
	return ""
}

// WaitBusiest polls until some worker has printed min SINK lines —
// the standard fault trigger "kill whoever holds the sink partition
// once the run is under way".
func (s *Sinks) WaitBusiest(min int, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		if w := s.Busiest(min); w != "" {
			return w, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("procharness: no worker produced %d sink events within %v", min, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// WaitDistinct polls until n distinct identities have externalized —
// the completion criterion for open-ended (ingest-fed) runs, whose
// coordinator never reports done.
func (s *Sinks) WaitDistinct(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if got := s.Distinct(); got >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("procharness: sinks externalized %d distinct events, want %d", s.Distinct(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Snapshot returns the identity set plus the number of duplicate prints
// (total prints beyond the first per identity).
func (s *Sinks) Snapshot() (ids map[string]bool, dupPrints int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids = make(map[string]bool, len(s.counts))
	for id, n := range s.counts {
		ids[id] = true
		if n > 1 {
			dupPrints += n - 1
		}
	}
	return ids, dupPrints
}

// DupBreakdown splits duplicate prints by locality. sameWorker counts
// repeats by a single process — always a suppression leak. crossWorker
// counts prints of one identity spanning processes — when a sink-hosting
// worker is killed, the reassigned partition legitimately re-externalizes
// its post-checkpoint tail on the survivor (at-least-once at the output
// boundary; the identity set stays exactly-once), so callers only treat
// these as violations when no process-killing fault was injected.
func (s *Sinks) DupBreakdown() (sameWorker, crossWorker int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, per := range s.byWorker {
		total, same := 0, 0
		for _, n := range per {
			total += n
			if n > 1 {
				same += n - 1
			}
		}
		if total > 1 {
			sameWorker += same
			crossWorker += (total - 1) - same
		}
	}
	return sameWorker, crossWorker
}

// Timeline copies the wall-anchored sink event sequence in arrival
// order.
func (s *Sinks) Timeline() []SinkEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SinkEvent, len(s.timeline))
	copy(out, s.timeline)
	return out
}
