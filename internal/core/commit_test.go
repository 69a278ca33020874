package core

import (
	"errors"
	"sync"
	"testing"

	"streammine/internal/event"
	"streammine/internal/stm"
	"streammine/internal/transport"
	"streammine/internal/wal"
)

// commitNotices counts the commit notices queued on m's control lane.
func commitNotices(m *mailbox) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := 0
	for i := 0; i < m.ctl.n; i++ {
		if m.ctl.at(i).commit {
			k++
		}
	}
	return k
}

// TestCommitNoticeAllocs pins the two wakes that reach the dispatcher from
// off it — a worker's run hand-back and the decision log's stability
// callback — at no allocation each, the notice included, and pins their
// coalescing: a thousand hand-backs from four goroutines with no pop in
// between queue one notice, which brings all thousand runs.
func TestCommitNoticeAllocs(t *testing.T) {
	n, _ := classifierHop(t, 4)
	tk := &task{n: n, seq: 1, state: taskQueued}
	ctx := new(procCtx)
	var spare []ranAttempt
	owners, recs := []*task{tk}, []wal.Record{{LSN: 1}}
	for _, wake := range []struct {
		name string
		fn   func()
	}{
		{"a worker's run hand-back", func() {
			ctx.run = append(ctx.run, ranAttempt{t: tk})
			n.endRun(ctx)
		}},
		{"the log's stability callback", func() {
			tk.pendingLogs.Store(1)
			owners[0] = tk // credit clears it
			n.logged(owners, recs, nil)
		}},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			wake.fn()
			if it, _, ok := n.mailbox.Pop(nil); !ok || !it.commit {
				t.Fatalf("%s queued %+v, want a commit notice", wake.name, it)
			}
			spare = n.mailbox.takeRuns(spare) // as the dispatcher's next turn does
		})
		if allocs != 0 {
			t.Errorf("%s allocated %.1f per wake, want 0", wake.name, allocs)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := []ranAttempt{{t: tk}}
			for i := 0; i < 250; i++ {
				n.mailbox.handBack(run)
			}
		}()
	}
	wg.Wait()
	if k := commitNotices(n.mailbox); k != 1 {
		t.Fatalf("1000 hand-backs queued %d commit notices, want 1", k)
	}
	if it, _, _ := n.mailbox.Pop(nil); !it.commit || n.mailbox.Len() != 0 {
		t.Fatalf("popped %+v with %d items behind it, want the one notice", it, n.mailbox.Len())
	}
	if ran := n.mailbox.takeRuns(nil); len(ran) != 1000 {
		t.Fatalf("the notice brought %d runs, want the 1000 handed back", len(ran))
	}
	n.mailbox.PushCommit() // the pop cleared the flag: the next wake queues one
	if k := commitNotices(n.mailbox); k != 1 {
		t.Fatalf("a wake after the pop queued %d commit notices, want 1", k)
	}
}

// TestHeadWaitsOutOpenDependency: the commit head's transaction read from
// an older attempt whose task is gone — cancelled, with the abort of its
// attempt still to come (the state cancelTask passes through, built here by
// hand) — so its commit finds the dependency open. The dispatcher's commit
// turns stop and leave nothing queued: no poll, no timer. When the attempt
// aborts, the cascade aborts the head, whose re-execution reaches the
// mailbox, and the head commits on the turns that follow its next run.
func TestHeadWaitsOutOpenDependency(t *testing.T) {
	n, _ := classifierHop(t, 1) // one class: every event updates one counter
	var run []event.Event
	for seq := event.Seq(1); seq <= 2; seq++ {
		n.mailbox.Push(transport.Message{Type: transport.MsgEvent, Event: event.Event{
			ID: event.ID{Source: 1, Seq: seq}, Key: uint64(seq),
		}})
	}
	run, k := popDispatch(t, n, run)
	if k != 2 {
		t.Fatalf("admitted a run of %d, want 2", k)
	}
	ctx := new(procCtx)
	older, head := n.open.at(0), n.open.at(1)
	for _, tk := range []*task{older, head} {
		waitLogged(t, tk)
		got, _ := n.execQ.Pop()
		n.runTask(got, ctx)
	}
	dep := older.tx
	if st := head.tx.Status(); st != stm.StatusCompleted || dep.Status() != stm.StatusCompleted {
		t.Fatalf("attempts are %v and %v, want both open", dep.Status(), st)
	}
	older.state = taskCancelled

	// The turns the log's and the runs' notices bring: the cancelled task is
	// retired, and the head stops at its open dependency.
	commitTurns := func() {
		for n.commitBatch(maxRun) {
		}
	}
	dispatchAll := func() { // the dispatcher's loop while anything is queued
		for n.mailbox.Len() > 0 {
			run, _ = popDispatch(t, n, run)
			commitTurns()
		}
	}
	commitTurns()
	dispatchAll()
	if n.cCommitted.Load() != 0 || n.open.n != 1 || n.open.at(0) != head || n.nextCommit.Load() != 2 {
		t.Fatalf("committed %d, %d open, cursor %d; want the head open behind its dependency",
			n.cCommitted.Load(), n.open.n, n.nextCommit.Load())
	}
	ready := head.state == taskOpen && len(head.sent) == 1 && head.evFinal && head.pendingLogs.Load() == 0
	if _, err := n.mem.CommitGroup([]*stm.Tx{head.tx}); !ready || !errors.Is(err, stm.ErrDepsOpen) {
		t.Fatalf("the head is ready %t, its commit says %v; want ready but for its open dependency", ready, err)
	}

	dep.Abort() // the attempt ends: its abort cascades into the head
	if n.mailbox.Len() == 0 {
		t.Fatal("the dependency's abort queued nothing for the dispatcher")
	}
	dispatchAll()
	again, ok := n.execQ.Pop()
	if !ok || again != head {
		t.Fatal("the head was not queued for its re-execution")
	}
	n.runTask(again, ctx)
	dispatchAll()
	if n.cCommitted.Load() != 1 || n.open.n != 0 {
		t.Fatalf("committed %d with %d open, want the head committed", n.cCommitted.Load(), n.open.n)
	}
}
