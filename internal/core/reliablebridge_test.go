package core

import (
	"testing"
	"time"

	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/transport"
)

// bridgedPair wires engine A's passthrough to engine B's classifier via a
// ReliableBridge and returns the handles the tests need.
func bridgedPair(t *testing.T) (engA, engB *Engine, srcA graph.NodeID, clsB graph.NodeID, srv *transport.Server, bridge *ReliableBridge, sink *dedupSink) {
	t.Helper()
	gA := graph.New()
	srcA = gA.AddNode(graph.Node{Name: "src"})
	passA := gA.AddNode(graph.Node{Name: "pass", Op: &operator.Passthrough{}, Speculative: true})
	gA.Connect(srcA, 0, passA, 0)
	poolA := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	t.Cleanup(func() { poolA.Close() })
	var err error
	engA, err = New(gA, Options{Pool: poolA, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	if err := engA.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(engA.Stop)

	gB := graph.New()
	clsB = gB.AddNode(graph.Node{
		Name:        "cls",
		Op:          &operator.Classifier{Classes: 2},
		Traits:      operator.ClassifierTraits(2),
		Speculative: true,
	})
	poolB := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	t.Cleanup(func() { poolB.Close() })
	engB, err = New(gB, Options{Pool: poolB, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	if err := engB.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(engB.Stop)
	sink = newDedupSink(t)
	if err := engB.Subscribe(clsB, 0, sink.fn); err != nil {
		t.Fatal(err)
	}

	h, err := engB.BridgeIn(clsB, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err = transport.ListenConn("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	bridge, err = engA.BridgeOutReliableOpts(passA, 0, srv.Addr(), BridgeOptions{Retry: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bridge.Close() })
	return engA, engB, srcA, clsB, srv, bridge, sink
}

// TestReliableBridgeSurvivesLinkFailure kills the TCP listener mid-stream,
// restarts it on the same port, and verifies the bridge reconnects,
// replays the unacknowledged buffer, and every event lands exactly once.
func TestReliableBridgeSurvivesLinkFailure(t *testing.T) {
	engA, engB, srcA, clsB, srv, bridge, sink := bridgedPair(t)
	s, _ := engA.Source(srcA)
	const phase1, phase2 = 20, 20
	for i := 0; i < phase1; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !sink.waitCount(phase1) {
		t.Fatalf("phase 1 stalled at %d", sink.count())
	}

	// Kill the link: remember the port, close the server, emit into the
	// outage (these sends are dropped but stay buffered at A).
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := phase1; i < phase1+phase2; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Give the bridge a moment to notice the broken pipe.
	deadline := time.Now().Add(10 * time.Second)
	for bridge.Connected() {
		// Sends only fail once the OS reports the closed peer; force
		// traffic through by emitting.
		if _, err := s.Emit(99999, nil); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("bridge never noticed the dead link")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart the listener on the same address.
	h, err := engB.BridgeIn(clsB, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := transport.ListenConn(addr, h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	// The supervisor reconnects and replays; all events (including the
	// probe) eventually commit downstream exactly once.
	if !sink.waitCount(phase1 + phase2 + 1) {
		t.Fatalf("after reconnect: %d of %d outputs", sink.count(), phase1+phase2+1)
	}
	if bridge.Reconnects() == 0 {
		t.Fatal("bridge reports no reconnects")
	}
	if err := engA.Err(); err != nil {
		t.Fatal(err)
	}
	if err := engB.Err(); err != nil {
		t.Fatal(err)
	}
	// dedupSink fails the test itself on any content mismatch; duplicates
	// are expected (replay) and must have been byte-identical.
}

// TestReliableBridgeCloseIdempotent covers shutdown.
func TestReliableBridgeCloseIdempotent(t *testing.T) {
	_, _, _, _, _, bridge, _ := bridgedPair(t)
	if !bridge.Connected() {
		t.Fatal("bridge not connected after construction")
	}
	if err := bridge.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bridge.Close(); err != nil {
		t.Fatal(err)
	}
	if bridge.Connected() {
		t.Fatal("closed bridge still connected")
	}
}

// TestReliableBridgeBadAddress fails fast.
func TestReliableBridgeBadAddress(t *testing.T) {
	g := graph.New()
	n := g.AddNode(graph.Node{Name: "n", Op: &operator.Passthrough{}})
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	defer pool.Close()
	eng, err := New(g, Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.BridgeOutReliableOpts(n, 0, "127.0.0.1:1", BridgeOptions{Retry: time.Millisecond}); err == nil {
		t.Fatal("dead address accepted")
	}
	if _, err := eng.BridgeOutReliableOpts(n, 7, "127.0.0.1:1", BridgeOptions{Retry: time.Millisecond}); err == nil {
		t.Fatal("bad port accepted")
	}
}
