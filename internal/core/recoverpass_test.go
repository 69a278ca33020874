package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/transport"
	"streammine/internal/wal"
)

// waitQueue blocks until cond holds for q, woken by q's pushes and its
// close (the caller must be the only waiter: a Push signals one).
func waitQueue(q *taskQueue, cond func(q *taskQueue) bool) {
	q.mu.Lock()
	for !cond(q) {
		q.cond.Wait()
	}
	q.mu.Unlock()
}

// TestCrashTakesNothingMoreOffItsQueues: a crash is fail-stop at the
// instant. Its worker is inside the operator with every other task queued
// behind it when the crash comes; the worker finishes that one task and
// executes no other, the dispatcher admits nothing more, and the log holds
// no input record of an event the node had not admitted. The recovered
// node then gives the exact failure-free outputs.
func TestCrashTakesNothingMoreOffItsQueues(t *testing.T) {
	const total = 200
	entered, release := make(chan struct{}), make(chan struct{})
	var first sync.Once
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{
		Name: "proc",
		Op: probeOp{&operator.Classifier{Classes: 4}, func(event.Event) {
			first.Do(func() {
				close(entered)
				<-release
			})
		}},
		Traits:          operator.ClassifierTraits(4),
		Speculative:     true,
		CheckpointEvery: 10,
		Workers:         1,
	})
	g.Connect(src, 0, proc, 0)
	disk := new(memDisk)
	pool := storage.NewPool([]storage.Disk{disk})
	t.Cleanup(func() { pool.Close() })
	eng := newTestEngine(t, g, Options{Seed: 49, Pool: pool, LogScanner: memScanner(disk)})
	sink := newDedupSink(t)
	if err := eng.Subscribe(proc, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)
	emitRange(t, s, 0, total)
	<-entered
	n := eng.nodes[proc]
	waitQueue(n.execQ, func(q *taskQueue) bool { return len(q.heap) == total-1 })
	before := n.ledger()

	crashed := make(chan error, 1)
	go func() { crashed <- eng.Crash(proc) }()
	waitQueue(n.execQ, func(q *taskQueue) bool { return q.closed }) // the mailbox closed first
	close(release)
	if err := <-crashed; err != nil {
		t.Fatal(err)
	}
	after := n.ledger()
	if after.Dispatched != before.Dispatched || after.Executed != before.Executed+1 {
		t.Fatalf("across the crash dispatched went %d → %d and executed %d → %d; want no admission and only the task in the operator executed",
			before.Dispatched, after.Dispatched, before.Executed, after.Executed)
	}
	recs, err := memScanner(disk)()
	if err != nil {
		t.Fatal(err)
	}
	inputs := 0
	for _, r := range recs {
		if r.Operator == n.opID && r.Kind == wal.KindInput {
			inputs++
		}
	}
	if inputs > int(before.Dispatched) {
		t.Fatalf("the log holds %d input records, more than the %d events admitted before the crash", inputs, before.Dispatched)
	}

	if err := eng.Recover(proc); err != nil {
		t.Fatal(err)
	}
	if !sink.waitCount(total) {
		t.Fatalf("post-recovery outputs stalled at %d of %d", sink.count(), total)
	}
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	checkClassCounts(t, sink, total)
}

// TestReplayPlanFromRecords builds a plan from a scan out of LSN order: an
// event's first input record places it, the snapshot's positions make the
// covered prefix (their decisions are dropped), the rest carry their
// highest LSN and their decisions in log order, and a decision record with
// no input record keeps an otherwise empty plan active. Admission through
// the plan holds what arrives early and releases the unplanned tail last;
// the covered index outlives the replay.
func TestReplayPlanFromRecords(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{Name: "proc", Op: &operator.Classifier{Classes: 4}, Traits: operator.ClassifierTraits(4)})
	g.Connect(src, 0, proc, 0)
	var scan []wal.Record
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	t.Cleanup(func() { pool.Close() })
	eng, err := New(g, Options{Pool: pool, LogScanner: func() ([]wal.Record, error) { return scan, nil }})
	if err != nil {
		t.Fatal(err)
	}
	n := eng.nodes[proc]
	id := func(seq int) event.ID { return event.ID{Source: 1, Seq: event.Seq(seq)} }
	rec := func(lsn wal.LSN, kind wal.Kind, seq int, value uint64) wal.Record {
		return wal.Record{LSN: lsn, Kind: kind, Operator: n.opID, Event: id(seq), Value: value}
	}
	build := func(t *testing.T, recs []wal.Record, last map[int]event.ID) *durableState {
		t.Helper()
		scan = slices.Clone(recs)
		rand.New(rand.NewSource(1)).Shuffle(len(scan), func(i, j int) { scan[i], scan[j] = scan[j], scan[i] })
		d := new(durableState)
		if err := n.buildReplayPlan(d, last); err != nil {
			t.Fatal(err)
		}
		return d
	}
	log := []wal.Record{
		rec(1, wal.KindInput, 1, 0),
		rec(2, wal.KindRandom, 1, 11), // on a covered event
		rec(3, wal.KindInput, 2, 0),
		rec(4, wal.KindInput, 3, 0),
		rec(5, wal.KindRandom, 3, 33),
		rec(6, wal.KindInput, 2, 0), // a second input record: the first placed it
		rec(7, wal.KindTime, 3, 34),
		rec(8, wal.KindRandom, 9, 99), // no input record
		rec(9, wal.KindInput, 4, 0),
		{LSN: 10, Kind: wal.KindInput, Operator: n.opID + 1, Event: id(5)},
		{LSN: 11, Kind: wal.KindCheckpointMark, Operator: n.opID, Value: 3},
	}

	t.Run("plan", func(t *testing.T) {
		d := build(t, log, map[int]event.ID{0: id(2)})
		p := d.plan
		if d.maxSeen != 11 || d.stats.logRecords != 9 {
			t.Fatalf("scan saw LSN %d and %d records of the operator, want 11 and 9", d.maxSeen, d.stats.logRecords)
		}
		if !p.active() || p.covered != 2 || p.logged != 4 || p.pos != 2 || p.end() != 4 {
			t.Fatalf("plan active=%v covered=%d logged=%d pos=%d end=%d, want true 2 4 2 4", p.active(), p.covered, p.logged, p.pos, p.end())
		}
		for seq, want := range map[int]bool{1: true, 2: true, 3: false, 4: false, 9: false, 5: false} {
			if p.covers(id(seq)) != want {
				t.Errorf("covers(%d) = %v, want %v", seq, !want, want)
			}
		}
		wantDecs := [][]decision{{{kind: wal.KindRandom, value: 33}, {kind: wal.KindTime, value: 34}}, nil}
		if !slices.Equal(p.lsns, []wal.LSN{7, 9}) || !slices.EqualFunc(p.decs, wantDecs, slices.Equal) {
			t.Fatalf("uncovered LSNs %v and decisions %v, want [7 9] and %v", p.lsns, p.decs, wantDecs)
		}

		n.replay = p
		t.Cleanup(func() { n.replay = nil })
		evs := []event.Event{{ID: id(4)}, {ID: id(7)}, {ID: id(3)}}
		ready := n.planRun(nil, 0, evs)
		var got []event.ID
		for _, pe := range ready {
			got = append(got, pe.ev.ID)
		}
		if want := []event.ID{id(3), id(4), id(7)}; !slices.Equal(got, want) {
			t.Fatalf("admitted %v, want %v: logged order, then the tail", got, want)
		}
		if r := ready[0]; !r.logged || r.maxLSN != 7 || len(r.decisions) != 2 {
			t.Errorf("event 3 admitted logged=%v at LSN %d with %d decisions, want true, 7, 2", r.logged, r.maxLSN, len(r.decisions))
		}
		if r := ready[2]; r.logged || r.maxLSN != 0 {
			t.Errorf("the unplanned event was admitted logged=%v at LSN %d", r.logged, r.maxLSN)
		}
		if p.active() || !p.covers(id(1)) || p.covers(id(3)) {
			t.Fatal("a done plan must keep answering for the covered prefix only")
		}
	})

	t.Run("decision-only", func(t *testing.T) {
		d := build(t, log[7:8], nil)
		if p := d.plan; !p.active() || p.logged != 0 || p.end() != 0 {
			t.Fatalf("a lone decision record gave plan %+v, want an active empty one", p)
		}
	})

	t.Run("all-covered", func(t *testing.T) {
		d := build(t, log[:7], map[int]event.ID{0: id(3)})
		if p := d.plan; p.active() || !p.covers(id(3)) || p.covered != 3 {
			t.Fatalf("a fully covered log gave plan %+v, want a done index of 3", p)
		}
	})

	t.Run("empty", func(t *testing.T) {
		if d := build(t, nil, nil); d.plan != nil {
			t.Fatalf("an empty log gave plan %+v, want none", d.plan)
		}
	})
}

// TestDuplicateReAcksLeaveAsOneFrame: a run of duplicates of committed
// inputs reaches upstream as one ACK run, in arrival order, leaving out a
// commit whose ACK waits for a stable checkpoint mark.
func TestDuplicateReAcksLeaveAsOneFrame(t *testing.T) {
	const k = 6
	g, src, proc := classifierGraph(0)
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	t.Cleanup(func() { pool.Close() })
	eng, err := New(g, Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	s, n := eng.nodes[src], eng.nodes[proc]
	evs := make([]event.Event, k+1)
	n.mu.Lock()
	n.committed.arm() // the duplicates follow a REDELIVER
	for i := range evs {
		evs[i] = event.Event{ID: event.ID{Source: event.SourceID(src), Seq: event.Seq(i + 1)}}
		n.committed.add(evs[i].ID)
	}
	n.sinceCkpt = append(n.sinceCkpt, ackTarget{id: evs[k].ID})
	n.mu.Unlock()

	n.admitRun(0, evs)
	it, _, _ := s.mailbox.Pop(nil)
	var one [1]transport.FinalizeRef
	refs, ack := refsOf(&it.msg, &one)
	if it.msg.Type != transport.MsgAckBatch || !ack || len(refs) != k || s.mailbox.Len() != 0 {
		t.Fatalf("upstream got %v with %d references and %d frames behind; want one ACK run of %d",
			it.msg.Type, len(refs), s.mailbox.Len(), k)
	}
	for i, r := range refs {
		if r.ID != evs[i].ID {
			t.Fatalf("reference %d is %s, want %s", i, r.ID, evs[i].ID)
		}
	}
}
