package core

import (
	"testing"
	"time"

	"streammine/internal/detrand"
	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
)

// TestChaosSeedSweep runs the crash/recover scenario across many seeds;
// the stall diagnostics in the failure path pinpoint which recovery stage
// wedged (these caught the checkpoint-coverage bugs fixed in recovery.go).
func TestChaosSeedSweep(t *testing.T) {
	for round := 0; round < 20; round++ {
		seed := uint64(1000 + round)
		rng := detrand.New(seed)
		g := graph.New()
		src := g.AddNode(graph.Node{Name: "src"})
		proc := g.AddNode(graph.Node{
			Name:            "proc",
			Op:              &operator.Classifier{Classes: 3},
			Traits:          operator.ClassifierTraits(3),
			Speculative:     true,
			CheckpointEvery: 7,
		})
		g.Connect(src, 0, proc, 0)
		eng := newTestEngine(t, g, Options{Seed: seed})
		sink := newDedupSink(t)
		if err := eng.Subscribe(proc, 0, sink.fn); err != nil {
			t.Fatal(err)
		}
		s, _ := eng.Source(src)
		const totalEvents = 200
		crashAt := map[int]bool{}
		for len(crashAt) < 4 {
			crashAt[20+rng.Intn(totalEvents-40)] = true
		}
		for i := 0; i < totalEvents; i++ {
			if _, err := s.Emit(uint64(rng.Intn(1000)), nil); err != nil {
				t.Fatal(err)
			}
			if crashAt[i] {
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
				if err := eng.Crash(proc); err != nil {
					t.Fatal(err)
				}
				if err := eng.Recover(proc); err != nil {
					t.Fatal(err)
				}
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for sink.count() < totalEvents && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if sink.count() < totalEvents {
			n, _ := eng.node(proc)
			n.mu.Lock()
			plan := n.replay
			planInfo := "done"
			if plan.active() {
				held, next := 0, "none"
				for _, h := range plan.isHeld {
					if h {
						held++
					}
				}
				plan.at.each(func(id event.ID, at int32) {
					if int(at) == plan.pos {
						next = id.String()
					}
				})
				planInfo = "pos=" + fmtInt(plan.pos) + "/" + fmtInt(plan.end()) + " covered=" + fmtInt(plan.covered) +
					" logged=" + fmtInt(plan.logged) + " next:" + next + " held=" + fmtInt(held) + " tail=" + fmtInt(len(plan.tail))
			}
			open := n.open.n
			committed := n.committed.len()
			tasks := n.tasks.len()
			n.mu.Unlock()
			srcN, _ := eng.node(src)
			srcN.mu.Lock()
			buffered := srcN.outBuf.len()
			srcN.mu.Unlock()
			t.Fatalf("seed %d stalled at %d/200: plan=%s open=%d committed=%d tasks=%d mailbox=%d execQ=%d srcBuf=%d",
				seed, sink.count(), planInfo, open, committed, tasks, n.mailbox.Len(), n.execQ.Len(), buffered)
		}
		eng.Stop()
	}
}

func fmtInt(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}
