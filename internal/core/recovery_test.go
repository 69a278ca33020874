package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/transport"
)

// dedupSink collects final outputs by ID, asserting the precise-recovery
// guarantee: every final delivery of an ID carries identical content.
type dedupSink struct {
	t  *testing.T
	mu sync.Mutex

	byID map[event.ID][]byte
	dups int
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
	eng.Drain()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}

	// Failure-free semantics: per class, counts form exactly 1..N.
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
	eng.Drain()
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
	eng.Drain()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ndNode, _ := eng.node(nd)
		ndNode.mu.Lock()
		committed := len(ndNode.committed)
		ndNode.mu.Unlock()
		if committed >= total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovery reprocessed only %d of %d", committed, total)
		}
		time.Sleep(time.Millisecond)
	}
	eng.Drain()
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
	eng.Drain()
	srcNode, _ := eng.node(src)
	srcNode.mu.Lock()
	buffered := len(srcNode.outBuf)
	srcNode.mu.Unlock()
	if buffered != total {
		t.Fatalf("source buffer = %d, want %d (no checkpoint → no acks)", buffered, total)
	}
	// Trigger replay and count duplicate admissions at proc (all should be
	// dropped as committed duplicates).
	procNode, _ := eng.node(proc)
	srcNode.mailbox.Push(transport.Message{Type: transport.MsgReplay})
	eng.Drain()
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
// follows the order they are re-sent in. The engine is never started, so
// the test reads the re-sent frames straight off the downstream mailbox.
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
	srcNode.handleInject(&cmdInject{evs: evs})
	if _, ok := procNode.mailbox.Pop(); !ok {
		t.Fatal("no injected run downstream")
	}
	srcNode.handleReplay()
	if got := procNode.mailbox.Len(); got != total {
		t.Fatalf("replay re-sent %d frames, want %d", got, total)
	}
	for i := 1; i <= total; i++ {
		item, _ := procNode.mailbox.Pop()
		if m := item.msg; m.Event.ID.Seq != event.Seq(i) {
			t.Fatalf("re-sent frame %d carries seq %d: not oldest first", i, m.Event.ID.Seq)
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
	eng.Drain()

	// 40 events, checkpoint every 8 → the last checkpoint at 40 acked all.
	// The covering ACK travels source-ward asynchronously after the
	// checkpoint commits, so poll rather than assert once.
	srcNode, _ := eng.node(src)
	bufferedBefore := -1
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		srcNode.mu.Lock()
		bufferedBefore = len(srcNode.outBuf)
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
	eng.Drain()
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
