package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/transport"
	"streammine/internal/wal"
)

// dedupSink collects final outputs by ID, asserting the precise-recovery
// guarantee: every final delivery of an ID carries identical content.
type dedupSink struct {
	t  *testing.T
	mu sync.Mutex

	byID map[event.ID][]byte
	dups int
	bad  []event.ID // IDs finalized twice with different content
}

func newDedupSink(t *testing.T) *dedupSink {
	return &dedupSink{t: t, byID: make(map[event.ID][]byte)}
}

func (s *dedupSink) fn(ev event.Event, final bool) {
	if !final {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.byID[ev.ID]; ok {
		s.dups++
		if !bytes.Equal(prev, ev.Payload) {
			s.t.Errorf("PRECISE RECOVERY VIOLATION: id %s finalized with %v then %v", ev.ID, prev, ev.Payload)
			s.bad = append(s.bad, ev.ID)
		}
		return
	}
	s.byID[ev.ID] = append([]byte(nil), ev.Payload...)
}

func (s *dedupSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

func (s *dedupSink) snapshot() map[event.ID][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[event.ID][]byte, len(s.byID))
	for k, v := range s.byID {
		out[k] = v
	}
	return out
}

func (s *dedupSink) waitCount(n int) bool {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if s.count() >= n {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// classifierGraph builds source → stateful classifier → sink.
func classifierGraph(ckptEvery int) (*graph.Graph, graph.NodeID, graph.NodeID) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{
		Name:            "proc",
		Op:              &operator.Classifier{Classes: 4},
		Traits:          operator.ClassifierTraits(4),
		Speculative:     true,
		CheckpointEvery: ckptEvery,
	})
	g.Connect(src, 0, proc, 0)
	return g, src, proc
}

// TestCrashRecoverPreciseOutputs is the paper's §2.2 recovery scenario:
// the stateful Processor crashes mid-stream, restores its checkpoint,
// replays logged inputs in order, and the outputs observed downstream
// are exactly those of a failure-free run.
func TestCrashRecoverPreciseOutputs(t *testing.T) {
	const total = 60
	g, src, proc := classifierGraph(10)
	eng := newTestEngine(t, g, Options{Seed: 21})
	sink := newDedupSink(t)
	if err := eng.Subscribe(proc, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)
	for i := 0; i < total/2; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Let part of the stream commit (and at least one checkpoint land).
	if !sink.waitCount(total / 4) {
		t.Fatalf("pre-crash progress stalled at %d", sink.count())
	}

	if err := eng.Crash(proc); err != nil {
		t.Fatal(err)
	}
	checkWiped(t, eng.nodes[proc])
	if err := eng.Recover(proc); err != nil {
		t.Fatal(err)
	}

	for i := total / 2; i < total; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
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

// checkWiped asserts that a crashed node keeps nothing of the dead
// incarnation reachable: every ID-addressed table is back to owning no
// slots, and the per-input positions are blank.
func checkWiped(t *testing.T, n *node) {
	t.Helper()
	n.mu.Lock()
	defer n.mu.Unlock()
	slots := len(n.tasks.slots) + len(n.outBuf.slots) + len(n.pendFin.slots) + len(n.pendRevoke.slots) +
		len(n.committed.set.dir) + len(n.committed.log) + len(n.open.buf)
	if slots != 0 || n.replay != nil || n.sinceCkpt != nil || n.committed.armed {
		t.Fatalf("crash left %d table slots, replay plan %v, %d unacked commits, armed dedup %t",
			slots, n.replay, len(n.sinceCkpt), n.committed.armed)
	}
	for i, p := range n.lastCommitted {
		if p != (inputPos{}) {
			t.Fatalf("crash left input %d at %v", i, p)
		}
	}
}

// checkClassCounts asserts the failure-free output set of a Classifier:
// total finals, and per class the counts form exactly 1..N.
func checkClassCounts(t *testing.T, sink *dedupSink, total int) {
	t.Helper()
	perClass := make(map[uint64]map[uint64]bool)
	for _, payload := range sink.snapshot() {
		class, count := operator.DecodePair(payload)
		if perClass[class] == nil {
			perClass[class] = make(map[uint64]bool)
		}
		if perClass[class][count] {
			t.Fatalf("class %d: duplicate count %d across recovery", class, count)
		}
		perClass[class][count] = true
	}
	seen := 0
	for class, counts := range perClass {
		for c := uint64(1); c <= uint64(len(counts)); c++ {
			if !counts[c] {
				t.Fatalf("class %d: missing count %d (state lost or double-applied)", class, c)
			}
		}
		seen += len(counts)
	}
	if seen != total {
		t.Fatalf("recovered run produced %d outputs, want %d", seen, total)
	}
}

// TestCrashSourceRejected: sources cannot crash.
func TestCrashSourceRejected(t *testing.T) {
	g, src, _ := classifierGraph(10)
	eng := newTestEngine(t, g, Options{Seed: 22})
	if err := eng.Crash(src); err == nil {
		t.Fatal("crashing a source succeeded")
	}
}

// TestRecoverWithoutCrashRejected: Recover requires a prior Crash.
func TestRecoverWithoutCrashRejected(t *testing.T) {
	g, _, proc := classifierGraph(10)
	eng := newTestEngine(t, g, Options{Seed: 23})
	if err := eng.Recover(proc); err == nil {
		t.Fatal("recover of a running node succeeded")
	}
}

// TestRecoveryReplaysLoggedDecisions: an operator whose output embeds a
// logged random draw reproduces the same draws after a crash, so the
// regenerated outputs are byte-identical (the heart of precise recovery
// for non-deterministic operators).
func TestRecoveryReplaysLoggedDecisions(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	nd := g.AddNode(graph.Node{
		Name: "nd",
		Op:   &randAdder{},
		// Stateful trait so input order and decisions are logged.
		Traits:          operator.Traits{Stateful: true, StateWords: 1},
		Speculative:     true,
		CheckpointEvery: 100, // never reached: full log replay
	})
	g.Connect(src, 0, nd, 0)
	eng := newTestEngine(t, g, Options{Seed: 24})
	sink := newDedupSink(t)
	if err := eng.Subscribe(nd, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)
	const total = 20
	for i := 0; i < total; i++ {
		if _, err := s.Emit(uint64(i), operator.EncodeValue(uint64(i*1000))); err != nil {
			t.Fatal(err)
		}
	}
	if !sink.waitCount(total) {
		t.Fatalf("pre-crash outputs stalled at %d", sink.count())
	}
	drainOrDump(t, eng, 10*time.Second)
	before := sink.snapshot()

	if err := eng.Crash(nd); err != nil {
		t.Fatal(err)
	}
	if err := eng.Recover(nd); err != nil {
		t.Fatal(err)
	}
	// All events were committed but never checkpoint-acked, so the source
	// replays all of them; the dedup sink will scream if any regenerated
	// output differs from its pre-crash content.
	drainOrDump(t, eng, 10*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for {
		ndNode, _ := eng.node(nd)
		ndNode.mu.Lock()
		committed := ndNode.committed.len()
		ndNode.mu.Unlock()
		if committed >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery reprocessed only %d of %d", committed, total)
		}
		time.Sleep(time.Millisecond)
	}
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	after := sink.snapshot()
	if len(after) != len(before) {
		t.Fatalf("output set changed across recovery: %d vs %d", len(after), len(before))
	}
	for id, payload := range before {
		if !bytes.Equal(after[id], payload) {
			t.Fatalf("output %s changed across recovery", id)
		}
	}
}

// TestReplayRequestResendsUnacked: a downstream replay request makes the
// upstream re-send exactly its unacknowledged buffered outputs.
func TestReplayRequestResendsUnacked(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{
		Name:            "proc",
		Op:              &operator.Classifier{Classes: 2},
		Traits:          operator.ClassifierTraits(2),
		Speculative:     true,
		CheckpointEvery: 1000, // never: everything stays buffered upstream
	})
	g.Connect(src, 0, proc, 0)
	eng := newTestEngine(t, g, Options{Seed: 25})
	s, _ := eng.Source(src)
	const total = 12
	for i := 0; i < total; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	drainOrDump(t, eng, 10*time.Second)
	srcNode, _ := eng.node(src)
	srcNode.mu.Lock()
	buffered := srcNode.outBuf.len()
	srcNode.mu.Unlock()
	if buffered != total {
		t.Fatalf("source buffer = %d, want %d (no checkpoint → no acks)", buffered, total)
	}
	// Trigger replay and count duplicate admissions at proc (all should be
	// dropped as committed duplicates).
	procNode, _ := eng.node(proc)
	srcNode.mailbox.Push(transport.Message{Type: transport.MsgReplay})
	drainOrDump(t, eng, 10*time.Second)
	time.Sleep(5 * time.Millisecond)
	st, _ := eng.Stats(proc)
	if st.Committed != total {
		t.Fatalf("proc committed %d, want %d (duplicates must not re-commit)", st.Committed, total)
	}
	procNode.mu.Lock()
	open := procNode.open.n
	procNode.mu.Unlock()
	if open != 0 {
		t.Fatalf("%d tasks created from duplicates", open)
	}
}

// TestReplayResendsOldestFirst: a replay request re-sends the unacknowledged
// buffer in emission order however many outputs it holds — a windowed
// workload buffers thousands at a crash, and downstream admission order
// follows the order they are re-sent in — in frames of up to maxRun events.
// The engine is never started, so the test reads the re-sent frames
// straight off the downstream mailbox.
func TestReplayResendsOldestFirst(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{Name: "proc", Op: &operator.Passthrough{}})
	g.Connect(src, 0, proc, 0)
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	defer pool.Close()
	eng, err := New(g, Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	const total = 2500
	srcNode, procNode := eng.nodes[src], eng.nodes[proc]
	evs := make([]event.Event, total)
	for i := range evs {
		evs[i] = event.Event{ID: event.ID{Source: 0, Seq: event.Seq(i + 1)}}
	}
	srcNode.handleInject(evs)
	if _, run, _ := popWork(procNode.mailbox, nil); len(run) != total {
		t.Fatalf("the injected run arrived downstream with %d events, want %d", len(run), total)
	}
	srcNode.handleReplay()
	if got, want := procNode.mailbox.Len(), 1+(total+maxRun-1)/maxRun; got != want {
		t.Fatalf("replay sent %d frames, want a REDELIVER and %d", got, want-1)
	}
	if it, _, _ := popWork(procNode.mailbox, nil); it.msg.Type != transport.MsgRedeliver {
		t.Fatalf("replay led with %v, want REDELIVER", it.msg.Type)
	}
	var resent []event.Event
	for procNode.mailbox.Len() > 0 {
		_, run, _ := popWork(procNode.mailbox, nil)
		if len(run) > maxRun {
			t.Fatalf("a re-sent frame carries %d events, more than %d", len(run), maxRun)
		}
		resent = append(resent, run...)
	}
	if len(resent) != total {
		t.Fatalf("replay re-sent %d events, want %d", len(resent), total)
	}
	for i, ev := range resent {
		if ev.ID.Seq != event.Seq(i+1) {
			t.Fatalf("re-sent frame %d carries seq %d: not oldest first", i+1, ev.ID.Seq)
		}
	}
}

// TestRecoveryFromCheckpointSkipsAckedEvents: events covered by the last
// checkpoint are not replayed, yet the restored state carries their
// effects forward.
func TestRecoveryFromCheckpointSkipsAckedEvents(t *testing.T) {
	const total = 40
	g, src, proc := classifierGraph(8)
	eng := newTestEngine(t, g, Options{Seed: 26})
	sink := newDedupSink(t)
	if err := eng.Subscribe(proc, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)
	for i := 0; i < total; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !sink.waitCount(total) {
		t.Fatal("initial run stalled")
	}
	drainOrDump(t, eng, 10*time.Second)

	// 40 events, checkpoint every 8 → the last checkpoint at 40 acked all.
	// The covering ACK travels source-ward asynchronously after the
	// checkpoint commits, so poll rather than assert once.
	srcNode, _ := eng.node(src)
	bufferedBefore := -1
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		srcNode.mu.Lock()
		bufferedBefore = srcNode.outBuf.len()
		srcNode.mu.Unlock()
		if bufferedBefore == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if bufferedBefore != 0 {
		t.Fatalf("source buffer = %d, want 0 after covering checkpoint", bufferedBefore)
	}

	if err := eng.Crash(proc); err != nil {
		t.Fatal(err)
	}
	if err := eng.Recover(proc); err != nil {
		t.Fatal(err)
	}
	// Nothing needs replaying; state must carry forward: the next events
	// continue the per-class counters.
	for i := total; i < total+8; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !sink.waitCount(total + 8) {
		t.Fatalf("post-recovery outputs stalled at %d", sink.count())
	}
	drainOrDump(t, eng, 10*time.Second)
	perClass := make(map[uint64]int)
	maxPerClass := make(map[uint64]uint64)
	for _, payload := range sink.snapshot() {
		class, count := operator.DecodePair(payload)
		perClass[class]++
		if count > maxPerClass[class] {
			maxPerClass[class] = count
		}
	}
	for class, n := range perClass {
		if maxPerClass[class] != uint64(n) {
			t.Fatalf("class %d: max count %d != events %d (checkpointed state lost)",
				class, maxPerClass[class], n)
		}
	}
	if fmt.Sprint(eng.Err()) != "<nil>" {
		t.Fatal(eng.Err())
	}
}

// TestRestoredOutputsAreReleased: a checkpoint carries the outputs its node
// had not been ACKed for, and downstream ACKs them after it is taken; a
// crash later, the restore puts them all back in the output buffer. They are
// re-sent on the links that ACK, so the buffer empties again — no restored
// output stays buffered for good and rides in every later checkpoint — and
// a subscriber on the node, which does not ACK, sees no second final. Each
// cycle ends on a checkpoint, so recovery replays nothing and a second
// final could only come from the re-sending.
func TestRestoredOutputsAreReleased(t *testing.T) {
	const cycles, window = 20, 24
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{
		Name: "proc", Op: &operator.Classifier{Classes: 4}, Traits: operator.ClassifierTraits(4),
		Speculative: true, CheckpointEvery: 8,
	})
	g.Connect(src, 0, proc, 0)
	var downs []graph.NodeID
	for _, name := range []string{"down0", "down1"} {
		d := g.AddNode(graph.Node{Name: name, Op: &operator.Passthrough{}})
		g.Connect(proc, 0, d, 0)
		downs = append(downs, d)
	}
	eng := newTestEngine(t, g, Options{Seed: 31})
	direct := newDedupSink(t)
	if err := eng.Subscribe(proc, 0, direct.fn); err != nil {
		t.Fatal(err)
	}
	var sinks []*dedupSink
	for _, d := range downs {
		s := newDedupSink(t)
		if err := eng.Subscribe(d, 0, s.fn); err != nil {
			t.Fatal(err)
		}
		sinks = append(sinks, s)
	}
	s, _ := eng.Source(src)
	n, _ := eng.node(proc)
	released := func(when string, cycle int) {
		t.Helper()
		drainOrDump(t, eng, 10*time.Second)
		for deadline := time.Now().Add(5 * time.Second); outBufLen(n) != 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d, %s: %d outputs still buffered after the drain", cycle, when, outBufLen(n))
			}
		}
	}
	for c := 1; c <= cycles; c++ {
		emitRange(t, s, (c-1)*window, c*window)
		for _, sink := range sinks {
			if !sink.waitCount(c * window) {
				t.Fatalf("cycle %d: a downstream sink stalled at %d of %d", c, sink.count(), c*window)
			}
		}
		released("before the crash", c)
		if err := eng.Crash(proc); err != nil {
			t.Fatal(err)
		}
		if err := eng.Recover(proc); err != nil {
			t.Fatal(err)
		}
		released("after the recovery", c)
		snap, err := eng.store.Latest(n.opID)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.Outputs) > window {
			t.Fatalf("cycle %d: checkpoint %d carries %d outputs, more than the %d of one window", c, snap.Epoch, len(snap.Outputs), window)
		}
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	for _, sink := range append(sinks, direct) {
		if sink.dups != 0 {
			t.Errorf("a subscriber saw %d second finals", sink.dups)
		}
	}
	checkClassCounts(t, sinks[0], cycles*window)
}

// outBufLen reads how many unacknowledged outputs a node buffers.
func outBufLen(n *node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.outBuf.len()
}

// emitRange emits events with keys from..to-1 and no payload.
func emitRange(t *testing.T, s *SourceHandle, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDupOfUncheckpointedCommitNotAcked: a checkpointing stateful node
// withholds the ACK of a committed event until a checkpoint covers it and
// the checkpoint's mark is stable, and a duplicate of that event (upstream
// replayed: a link flap, a second recovery) must not release it early —
// upstream holds the only copy a recovery could rebuild the uncheckpointed
// state from. The duplicate comes before any checkpoint, or while the
// covering checkpoint's mark is not yet stable.
func TestDupOfUncheckpointedCommitNotAcked(t *testing.T) {
	const half = 10
	t.Run("no checkpoint", func(t *testing.T) {
		g, src, proc := classifierGraph(1000) // never: nothing is ACKed
		eng := newTestEngine(t, g, Options{Seed: 27})
		sink := newDedupSink(t)
		if err := eng.Subscribe(proc, 0, sink.fn); err != nil {
			t.Fatal(err)
		}
		s, _ := eng.Source(src)
		emitRange(t, s, 0, half)
		if !sink.waitCount(half) {
			t.Fatalf("initial run stalled at %d", sink.count())
		}
		drainOrDump(t, eng, 10*time.Second)
		srcNode, _ := eng.node(src)
		srcNode.mailbox.Push(transport.Message{Type: transport.MsgReplay})
		drainOrDump(t, eng, 10*time.Second)
		if got := outBufLen(srcNode); got != half {
			t.Fatalf("source buffers %d after a replay of committed events, want %d: duplicates were ACKed before any checkpoint", got, half)
		}
		if err := eng.Crash(proc); err != nil {
			t.Fatal(err)
		}
		if err := eng.Recover(proc); err != nil {
			t.Fatal(err)
		}
		emitRange(t, s, half, 2*half)
		if !sink.waitCount(2 * half) {
			t.Fatalf("post-recovery stalled at %d of %d", sink.count(), 2*half)
		}
		drainOrDump(t, eng, 10*time.Second)
		if err := eng.Err(); err != nil {
			t.Fatal(err)
		}
		checkClassCounts(t, sink, 2*half)
	})

	t.Run("mark not stable", func(t *testing.T) {
		g, src, proc := classifierGraph(half) // one checkpoint covers the run
		disk := new(memDisk)
		release := make(chan struct{})
		pool := storage.NewPool([]storage.Disk{markHoldDisk{disk, release}})
		t.Cleanup(func() { pool.Close() })
		eng := newTestEngine(t, g, Options{Seed: 27, Pool: pool, LogScanner: memScanner(disk)})
		letGo := sync.OnceFunc(func() { close(release) })
		t.Cleanup(letGo) // registered last: runs before anything stops
		sink := newDedupSink(t)
		if err := eng.Subscribe(proc, 0, sink.fn); err != nil {
			t.Fatal(err)
		}
		s, _ := eng.Source(src)
		srcNode, _ := eng.node(src)
		markOnly := func(when string) { // wait until the held mark is all that is in flight
			t.Helper()
			for deadline := time.Now().Add(5 * time.Second); eng.inflight.n.Load() != 1; time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %d units in flight, want the checkpoint's mark alone", when, eng.inflight.n.Load())
				}
			}
		}
		emitRange(t, s, 0, half)
		markOnly("after the run")
		srcNode.mailbox.Push(transport.Message{Type: transport.MsgReplay})
		markOnly("after the replay")
		if got := outBufLen(srcNode); got != half {
			t.Fatalf("source buffers %d after a replay of committed events, want %d: duplicates were ACKed before the checkpoint's mark was stable", got, half)
		}
		letGo()
		drainOrDump(t, eng, 10*time.Second)
		if got := outBufLen(srcNode); got != 0 || sink.count() != half || eng.Err() != nil {
			t.Fatalf("once the mark is stable: source buffers %d, %d finals, error %v; want 0, %d, nil", got, sink.count(), eng.Err(), half)
		}
	})
}

// markHoldDisk writes everything to its memDisk and then keeps a write that
// carries a checkpoint mark from returning until release is closed: the mark
// is on disk, and the pool has not reported it stable.
type markHoldDisk struct {
	*memDisk
	release chan struct{}
}

func (d markHoldDisk) Write(p []byte) error {
	err := d.memDisk.Write(p)
	if recs, _ := wal.Scan(p); slices.ContainsFunc(recs, func(r wal.Record) bool { return r.Kind == wal.KindCheckpointMark }) {
		<-d.release
	}
	return err
}

// TestRecoverNeedsLogScanner: recovery cannot run without a scanner, and a
// Recover that fails before or while reading durable state leaves the node
// as Crash left it, so it can be called again.
func TestRecoverNeedsLogScanner(t *testing.T) {
	crashed := func(n *node) {
		t.Helper()
		n.mailbox.Push(transport.Message{Type: transport.MsgReplay})
		if !n.stopFlag.Load() || n.mailbox.Len() != 0 {
			t.Fatalf("failed Recover left the node half open: stopped=%t, mailbox holds %d", n.stopFlag.Load(), n.mailbox.Len())
		}
	}
	g, _, proc := classifierGraph(10)
	disk := new(memDisk)
	pool := storage.NewPool([]storage.Disk{disk})
	t.Cleanup(func() { pool.Close() })
	if _, err := New(g, Options{Pool: pool, RestoreFromStorage: true}); !errors.Is(err, ErrNoLogScanner) {
		t.Fatalf("New with RestoreFromStorage and no scanner = %v, want ErrNoLogScanner", err)
	}
	eng := newTestEngine(t, g, Options{Pool: pool, Seed: 28})
	if err := eng.Crash(proc); err != nil {
		t.Fatal(err)
	}
	running := runtime.NumGoroutine()
	if err := eng.Recover(proc); !errors.Is(err, ErrNoLogScanner) {
		t.Fatalf("Recover without a scanner = %v, want ErrNoLogScanner", err)
	}
	if now := runtime.NumGoroutine(); now > running {
		t.Fatalf("failed Recover started goroutines: %d, then %d", running, now)
	}
	n, _ := eng.node(proc)
	crashed(n)

	// A scan that fails once: the first Recover reports it and changes
	// nothing, the second one recovers.
	const total = 40
	var failScan atomic.Bool
	errScan := errors.New("disk unreadable")
	g, src, proc := classifierGraph(10)
	eng = newTestEngine(t, g, Options{Pool: pool, Seed: 28, LogScanner: func() ([]wal.Record, error) {
		if failScan.Load() {
			return nil, errScan
		}
		return memScanner(disk)()
	}})
	sink := newDedupSink(t)
	if err := eng.Subscribe(proc, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)
	emitRange(t, s, 0, total/2)
	if !sink.waitCount(total / 4) {
		t.Fatalf("pre-crash progress stalled at %d", sink.count())
	}
	if err := eng.Crash(proc); err != nil {
		t.Fatal(err)
	}
	failScan.Store(true)
	if err := eng.Recover(proc); !errors.Is(err, errScan) {
		t.Fatalf("Recover over a failing scan = %v, want %v", err, errScan)
	}
	n, _ = eng.node(proc)
	crashed(n)
	failScan.Store(false)
	if err := eng.Recover(proc); err != nil {
		t.Fatal(err)
	}
	emitRange(t, s, total/2, total)
	if !sink.waitCount(total) {
		t.Fatalf("post-recovery stalled at %d of %d", sink.count(), total)
	}
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	checkClassCounts(t, sink, total)
}

// TestRecoveryScanOrderTwoDisks: a pool over two disks spreads one node's
// records over both, so no scan returns them in the order they were logged
// in; recovery orders them by LSN itself. One event is in flight at a time,
// so the appends alternate between the disks, and one class makes every
// change of admission order change an output.
func TestRecoveryScanOrderTwoDisks(t *testing.T) {
	const total = 24
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{
		Name:            "proc",
		Op:              &operator.Classifier{Classes: 1},
		Traits:          operator.ClassifierTraits(1),
		Speculative:     true,
		CheckpointEvery: 1000, // never: the whole log is replayed
	})
	g.Connect(src, 0, proc, 0)
	diskA, diskB := new(memDisk), new(memDisk)
	pool := storage.NewPool([]storage.Disk{diskA, diskB})
	t.Cleanup(func() { pool.Close() })
	scan := memScanner(diskB, diskA)
	eng := newTestEngine(t, g, Options{Pool: pool, Seed: 29, LogScanner: scan})
	sink := newDedupSink(t)
	if err := eng.Subscribe(proc, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)
	for i := 0; i < total/2; i++ {
		emitRange(t, s, i, i+1)
		if !sink.waitCount(i + 1) {
			t.Fatalf("initial run stalled at %d", sink.count())
		}
	}
	recs, err := scan()
	if err != nil {
		t.Fatal(err)
	}
	if slices.IsSortedFunc(recs, func(a, b wal.Record) int { return cmp.Compare(a.LSN, b.LSN) }) {
		t.Fatalf("the scan of %d records is in LSN order: the test no longer exercises recovery's sort", len(recs))
	}
	if err := eng.Crash(proc); err != nil {
		t.Fatal(err)
	}
	if err := eng.Recover(proc); err != nil {
		t.Fatal(err)
	}
	emitRange(t, s, total/2, total)
	if !sink.waitCount(total) {
		t.Fatalf("post-recovery stalled at %d of %d", sink.count(), total)
	}
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	// The dedup sink has compared every regenerated final with its
	// pre-crash content.
	checkClassCounts(t, sink, total)
}

// holdDisk completes every write on its memDisk; while held it then keeps
// the writer from returning, so the record is on disk and the pool has not
// reported it stable.
type holdDisk struct {
	*memDisk
	held    *atomic.Bool
	release chan struct{}
}

func (d holdDisk) Write(p []byte) error {
	err := d.memDisk.Write(p)
	if d.held.Load() {
		<-d.release
	}
	return err
}

// nowStamper emits the logged clock read it took, so a replay that took a
// fresh one instead cannot reproduce the output.
type nowStamper struct{ operator.NopOperator }

func (nowStamper) Process(ctx operator.Context, e event.Event) error {
	now, err := ctx.Now()
	if err != nil {
		return err
	}
	return ctx.Emit(e.Key, operator.EncodeValue(uint64(now)))
}

// TestRecoveryReadsWhatTheDiskHolds: the replay plan is what the scanner
// reads back and nothing else. An event whose records reached the disk but
// whose stable notification never reached the node is replayed with its
// logged decision; and when the scanner returns an empty log the same node
// restarts from its checkpoint alone.
func TestRecoveryReadsWhatTheDiskHolds(t *testing.T) {
	const ckpt = 4
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{
		Name:            "stamp",
		Op:              nowStamper{},
		Traits:          operator.Traits{Stateful: true, StateWords: 1},
		Speculative:     true,
		CheckpointEvery: ckpt,
	})
	g.Connect(src, 0, proc, 0)
	var held, lost atomic.Bool
	release := make(chan struct{})
	diskA, diskB := new(memDisk), new(memDisk)
	pool := storage.NewPool([]storage.Disk{holdDisk{diskA, &held, release}, holdDisk{diskB, &held, release}})
	t.Cleanup(func() { pool.Close() })
	scan := func() ([]wal.Record, error) {
		if lost.Load() {
			return nil, nil
		}
		return memScanner(diskA, diskB)()
	}
	eng := newTestEngine(t, g, Options{Pool: pool, Seed: 30, LogScanner: scan})
	letGo := sync.OnceFunc(func() { close(release) })
	t.Cleanup(letGo)
	sink := &sinkCollector{}
	if err := eng.Subscribe(proc, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)
	emitRange(t, s, 0, ckpt)
	sink.waitFinals(t, ckpt)
	// The checkpoint's ACKs leave once its mark is stable: from here on
	// nothing but the next event is written.
	srcNode, _ := eng.node(src)
	for deadline := time.Now().Add(5 * time.Second); outBufLen(srcNode) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("source still buffers %d outputs after the covering checkpoint", outBufLen(srcNode))
		}
	}

	held.Store(true)
	in, err := s.Emit(ckpt, nil)
	if err != nil {
		t.Fatal(err)
	}
	var specOut event.Event
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		recs, err := scan()
		if err != nil {
			t.Fatal(err)
		}
		logged := slices.ContainsFunc(recs, func(r wal.Record) bool { return r.Kind == wal.KindTime && r.Event == in.ID })
		sink.mu.Lock()
		if len(sink.spec) > 0 {
			specOut = sink.spec[len(sink.spec)-1]
		}
		finals := len(sink.final)
		sink.mu.Unlock()
		if finals != ckpt {
			t.Fatalf("%d finals while the disks hold every stable notification, want %d", finals, ckpt)
		}
		if logged && specOut.Key == ckpt {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("clock read of the in-flight event on disk: %t; its speculative output: %+v", logged, specOut)
		}
	}
	if err := eng.Crash(proc); err != nil {
		t.Fatal(err)
	}
	letGo() // the notifications arrive at a node that is gone
	if err := eng.Recover(proc); err != nil {
		t.Fatal(err)
	}
	finals := sink.waitFinals(t, ckpt+1)
	if got := finals[len(finals)-1]; got.ID != specOut.ID || !bytes.Equal(got.Payload, specOut.Payload) {
		t.Fatalf("replayed output %s %v, want %s %v: the logged clock read was not used", got.ID, got.Payload, specOut.ID, specOut.Payload)
	}
	drainOrDump(t, eng, 10*time.Second)

	if err := eng.Crash(proc); err != nil {
		t.Fatal(err)
	}
	lost.Store(true)
	if err := eng.Recover(proc); err != nil {
		t.Fatal(err)
	}
	st := eng.RecoveryStats()
	if st.CheckpointBytes == 0 || st.LogRecords != 0 || st.CoveredSet != 0 || !st.ReplayDone {
		t.Fatalf("recovery over an empty log: %+v, want the checkpoint and no plan", st)
	}
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestSourceEdgeStaysFIFOAcrossRecovery: the crash dropped three of a
// source's unacknowledged events that the log never ordered, and the event
// behind them was on the wire: it reaches the recovered node ahead of the
// source's replay. The replay plan holds it until the replay has brought the
// three, so the node admits the source's events in the order it emitted
// them — the logged one first, as before.
func TestSourceEdgeStaysFIFOAcrossRecovery(t *testing.T) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	cls := g.AddNode(graph.Node{
		Name: "cls", Op: &operator.Classifier{Classes: 4},
		Traits: operator.ClassifierTraits(4), Speculative: true,
	})
	g.Connect(src, 0, cls, 0)
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	t.Cleanup(func() { pool.Close() })
	eng, err := New(g, Options{Seed: 7, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	s, n := eng.nodes[src], eng.nodes[cls]
	if err := n.spec.Op.Init(initContext{n: n}); err != nil {
		t.Fatal(err)
	}
	evs := make([]event.Event, 5) // logged, three dropped, on the wire
	for i := range evs {
		evs[i] = event.Event{ID: event.ID{Source: event.SourceID(src), Seq: event.Seq(i + 1)}, Key: uint64(i)}
	}
	s.handleInject(evs) // buffered at the source until acknowledged
	n.settle(n.mailbox.Close())
	n.mailbox.Reopen() // the crash dropped the deliveries
	plan := &replayPlan{
		logged: 1, lsns: []wal.LSN{1}, decs: make([][]decision, 1),
		held: make([]plannedEvent, 1), isHeld: make([]bool, 1),
	}
	plan.at.put(evs[0].ID, 0)
	n.replay = plan
	n.planSourceReplay()

	n.admitRun(0, evs[4:]) // on the wire, ahead of the replay
	n.admitRun(0, evs)     // the source's replay
	if n.replay.active() {
		t.Fatal("the replay did not complete the plan")
	}
	for i, ev := range evs {
		if tk := n.open.at(i); tk.ev.ID != ev.ID {
			t.Errorf("admission %d is %s, want %s: the source's edge was reordered", i, tk.ev.ID, ev.ID)
		}
	}
	for i := range evs {
		tk := n.open.at(i)
		waitLogged(t, tk)
		switch {
		case i == 0 && tk.maxLSN != 1:
			t.Errorf("the logged event was admitted at LSN %d, want its logged LSN 1", tk.maxLSN)
		case i > 0 && tk.maxLSN == 0:
			t.Errorf("planned source event %d was admitted without an input record", i)
		}
	}
}
