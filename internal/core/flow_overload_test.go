package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
)

// overloadChain builds the overload topology: src → scale → classify →
// offset, a 3-op chain whose middle stage is stateful, speculative and
// deliberately slow, so a full-speed burst from the source overruns the
// chain's sustained capacity many times over. fl (shared by the three op
// nodes) configures flow control; nil runs the chain unbounded. workers
// sets the classify stage's parallelism: 1 makes the chain's outputs
// byte-deterministic across runs (concurrent workers race for per-class
// counter values).
func overloadChain(fl *flow.Limits, workers int) (*graph.Graph, graph.NodeID, graph.NodeID) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	scale := g.AddNode(graph.Node{
		Name: "scale",
		Op: &operator.Map{Fn: func(e event.Event) ([]byte, error) {
			return operator.EncodeValue(operator.DecodeValue(e.Payload) * 2), nil
		}},
		Traits:      operator.Traits{Deterministic: true},
		Speculative: true,
		Flow:        fl,
	})
	classify := g.AddNode(graph.Node{
		Name:            "classify",
		Op:              &operator.Classifier{Classes: 4, Cost: 20 * time.Microsecond},
		Traits:          operator.ClassifierTraits(4),
		Speculative:     true,
		CheckpointEvery: 32,
		Workers:         workers,
		Flow:            fl,
	})
	offset := g.AddNode(graph.Node{
		Name: "offset",
		Op: &operator.Map{Fn: func(e event.Event) ([]byte, error) {
			return e.Payload, nil
		}},
		Traits:      operator.Traits{Deterministic: true},
		Speculative: true,
		Flow:        fl,
	})
	g.Connect(src, 0, scale, 0)
	g.Connect(scale, 0, classify, 0)
	g.Connect(classify, 0, offset, 0)
	return g, src, offset
}

// runOverload bursts total events through the chain at full speed (far
// beyond the classify stage's sustained rate) and returns the finalized
// sink outputs plus the end-of-run pressure snapshot.
func runOverload(t *testing.T, fl *flow.Limits, total, workers int, opts Options) (map[event.ID][]byte, []NodePressure) {
	t.Helper()
	g, src, sinkID := overloadChain(fl, workers)
	eng := newTestEngine(t, g, opts)
	sink := newDedupSink(t)
	if err := eng.Subscribe(sinkID, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, err := eng.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < total; i++ {
		if _, err := s.Emit(uint64(i), operator.EncodeValue(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if !sink.waitCount(total) {
		t.Fatalf("overloaded chain stalled at %d of %d finals", sink.count(), total)
	}
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	return sink.snapshot(), eng.Pressure()
}

// TestFlowOverloadBoundedOccupancy is the ISSUE's overload regression: a
// burst far above sustained capacity must (a) complete — FINALIZE/ACK keep
// making progress with the data lanes saturated, (b) never push any data
// lane past its configured capacity, and (c) externalize exactly the same
// outputs as the unthrottled run, since shedding is disabled.
func TestFlowOverloadBoundedOccupancy(t *testing.T) {
	const total = 400
	fl := &flow.Limits{MailboxCap: 8, MaxOpenSpec: 2}

	baseline, _ := runOverload(t, nil, total, 1, Options{Seed: 31})
	bounded, pressure := runOverload(t, fl, total, 1, Options{Seed: 31})

	if len(bounded) != len(baseline) {
		t.Fatalf("flow-controlled run externalized %d outputs, baseline %d", len(bounded), len(baseline))
	}
	for id, payload := range baseline {
		got, ok := bounded[id]
		if !ok {
			t.Fatalf("output %s missing from flow-controlled run", id)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("output %s differs between runs: %v vs %v", id, got, payload)
		}
	}

	capped := 0
	for _, p := range pressure {
		if p.DataCap == 0 {
			continue // source: no flow config
		}
		capped++
		if p.DataCap != fl.MailboxCap {
			t.Errorf("%s: DataCap = %d, want %d", p.Node, p.DataCap, fl.MailboxCap)
		}
		if p.DataHighWater > p.DataCap {
			t.Errorf("%s: peak data-lane occupancy %d exceeded capacity %d", p.Node, p.DataHighWater, p.DataCap)
		}
		if p.Overflows != 0 {
			t.Errorf("%s: %d pushes overran the capacity", p.Node, p.Overflows)
		}
		if p.CreditsOutstanding > fl.MailboxCap {
			t.Errorf("%s: %d credits outstanding, window %d", p.Node, p.CreditsOutstanding, fl.MailboxCap)
		}
	}
	if capped != 3 {
		t.Fatalf("%d nodes report a data capacity, want 3", capped)
	}
}

// TestFlowOverloadThrottleEngages: the 4-worker classify stage under a
// cap of 2 open speculative tasks must actually park workers — the
// throttled counter proves the overload test exercises contention rather
// than an idle pipeline. A delayed disk keeps commits (which need stable
// WAL records) lagging execution, so open tasks pile against the cap.
func TestFlowOverloadThrottleEngages(t *testing.T) {
	const total = 200
	fl := &flow.Limits{MailboxCap: 8, MaxOpenSpec: 2}
	pool := storage.NewPool([]storage.Disk{storage.NewSimDisk(time.Millisecond, 0)})
	defer pool.Close()
	_, pressure := runOverload(t, fl, total, 4, Options{Seed: 34, Pool: pool})
	var classify *NodePressure
	for i := range pressure {
		if pressure[i].Node == "classify" {
			classify = &pressure[i]
		}
	}
	if classify == nil {
		t.Fatal("classify missing from pressure snapshot")
	}
	if classify.ThrottleCap < 1 || classify.ThrottleCap > fl.MaxOpenSpec {
		t.Fatalf("throttle cap %d outside [1,%d]", classify.ThrottleCap, fl.MaxOpenSpec)
	}
	if classify.Throttled == 0 {
		t.Fatal("throttle never parked a worker: overload not exercised")
	}
	if classify.ThrottleOpen != 0 {
		t.Fatalf("%d speculation slots still held after drain", classify.ThrottleOpen)
	}
}

// TestFlowCrashRecoverPreciseOutputs reruns the §2.2 crash/recovery
// scenario with every flow mechanism enabled on the stateful stage.
// Recovery must re-grant the credits that died with the node (and clear
// the speculation slots of its open tasks) or the replay wedges and the
// post-crash half of the stream never commits.
func TestFlowCrashRecoverPreciseOutputs(t *testing.T) {
	const total = 60
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{
		Name:            "proc",
		Op:              &operator.Classifier{Classes: 4},
		Traits:          operator.ClassifierTraits(4),
		Speculative:     true,
		CheckpointEvery: 10,
		Workers:         2,
		Flow:            &flow.Limits{MailboxCap: 4, MaxOpenSpec: 2},
	})
	g.Connect(src, 0, proc, 0)
	eng := newTestEngine(t, g, Options{Seed: 32})
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
		t.Fatalf("post-recovery outputs stalled at %d of %d (credits not re-granted?)", sink.count(), total)
	}
	drainOrDump(t, eng, 10*time.Second)
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

	// The data lane must have stayed within bounds across crash + replay.
	for _, p := range eng.Pressure() {
		if p.Node == "proc" && p.DataHighWater > p.DataCap {
			t.Fatalf("proc: post-recovery peak occupancy %d exceeded capacity %d", p.DataHighWater, p.DataCap)
		}
	}
}

// TestFlowSourceAdmissionShed: a source over its admission rate with
// shedding on drops the surplus before it is ever logged. Every admitted
// event still commits, counters reconcile, and Emit surfaces ErrShed so
// publishers can distinguish drops from failures.
func TestFlowSourceAdmissionShed(t *testing.T) {
	const total = 50
	g := graph.New()
	src := g.AddNode(graph.Node{
		Name: "src",
		Flow: &flow.Limits{AdmitRate: 50, AdmitBurst: 5, Shed: true},
	})
	mid := g.AddNode(graph.Node{
		Name: "echo",
		Op: &operator.Map{Fn: func(e event.Event) ([]byte, error) {
			return e.Payload, nil
		}},
		Traits:      operator.Traits{Deterministic: true},
		Speculative: true,
	})
	g.Connect(src, 0, mid, 0)
	eng := newTestEngine(t, g, Options{Seed: 33})
	sink := newDedupSink(t)
	if err := eng.Subscribe(mid, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)
	shed := 0
	for i := 0; i < total; i++ {
		_, err := s.Emit(uint64(i), operator.EncodeValue(uint64(i)))
		switch {
		case errors.Is(err, ErrShed):
			shed++
		case err != nil:
			t.Fatal(err)
		}
	}
	if shed == 0 {
		t.Fatalf("burst of %d at 50 ev/s (burst 5) shed nothing", total)
	}
	admitted := total - shed
	if !sink.waitCount(admitted) {
		t.Fatalf("finals stalled at %d of %d admitted", sink.count(), admitted)
	}
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	if got := sink.count(); got != admitted {
		t.Fatalf("sink saw %d finals, want exactly the %d admitted", got, admitted)
	}
	for _, p := range eng.Pressure() {
		if p.Node != "src" {
			continue
		}
		if p.Shed != uint64(shed) || p.Admitted != uint64(admitted) {
			t.Fatalf("pressure admitted=%d shed=%d, want %d/%d", p.Admitted, p.Shed, admitted, shed)
		}
	}
}
