package procharness

import (
	"testing"
	"time"
)

func TestSinksCountsAndSnapshot(t *testing.T) {
	s := NewSinks()
	s.Record("w1", "a")
	s.Record("w1", "b")
	s.Record("w2", "c")
	if s.Distinct() != 3 || s.Busiest(2) != "w1" {
		t.Fatalf("distinct=%d busiest(2)=%q, want 3, w1", s.Distinct(), s.Busiest(2))
	}
	ids, dups := s.Snapshot()
	if len(ids) != 3 || dups != 0 {
		t.Fatalf("ids=%d dups=%d", len(ids), dups)
	}
	if got := len(s.Timeline()); got != 3 {
		t.Fatalf("timeline length = %d", got)
	}
}

func TestSinksDupBreakdown(t *testing.T) {
	s := NewSinks()
	// "a": printed once on each worker — the cross-incarnation replay
	// signature after a sink-host kill.
	s.Record("w1", "a")
	s.Record("w2", "a")
	// "b": printed twice by the same worker — a suppression leak.
	s.Record("w1", "b")
	s.Record("w1", "b")
	// "c": clean.
	s.Record("w2", "c")
	same, cross := s.DupBreakdown()
	if same != 1 || cross != 1 {
		t.Fatalf("same=%d cross=%d, want 1/1", same, cross)
	}
	if _, dups := s.Snapshot(); dups != 2 {
		t.Fatalf("total dups = %d, want 2", dups)
	}
}

func TestSinksWaitHelpers(t *testing.T) {
	s := NewSinks()
	go func() {
		for _, id := range []string{"a", "b", "c"} {
			s.Record("w1", id)
		}
	}()
	if err := s.WaitDistinct(3, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	w, err := s.WaitBusiest(3, 2*time.Second)
	if err != nil || w != "w1" {
		t.Fatalf("busiest = %q, %v", w, err)
	}
	if err := s.WaitDistinct(10, 30*time.Millisecond); err == nil {
		t.Fatal("WaitDistinct should time out")
	}
}

func TestGateways(t *testing.T) {
	g := &Gateways{}
	g.set("src", "w1", "127.0.0.1:9")
	reg, ok := g.Get("src")
	if !ok || reg.Worker != "w1" || reg.Gen != 1 {
		t.Fatalf("reg = %+v ok=%v", reg, ok)
	}
	// Re-registration (failover) bumps the generation.
	g.set("src", "w2", "127.0.0.1:10")
	reg, _ = g.Get("src")
	if reg.Worker != "w2" || reg.Gen != 2 {
		t.Fatalf("after failover reg = %+v", reg)
	}
	if _, err := g.Wait("src", time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Wait("nope", 30*time.Millisecond); err == nil {
		t.Fatal("Wait on unknown stream should time out")
	}
}
