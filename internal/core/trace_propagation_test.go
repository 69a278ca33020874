package core

import (
	"bytes"
	"strconv"
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/transport"
)

// TestTracePropagationAcrossBridge drives a pipeline split across two
// engines connected by real TCP, each with its own tracer, and asserts
// the tentpole property of distributed latency attribution: the trace id
// minted at the source rides the event through engine A, across the wire
// in the codec's trace trailer, and through engine B — so merging the two
// span files yields one lineage per event covering both processes.
func TestTracePropagationAcrossBridge(t *testing.T) {
	var bufA, bufB bytes.Buffer
	trA := metrics.NewTracerProc(&bufA, "engA")
	trB := metrics.NewTracerProc(&bufB, "engB")

	gA := graph.New()
	srcA := gA.AddNode(graph.Node{Name: "src"})
	mapA := gA.AddNode(graph.Node{Name: "mapper", Op: &operator.Passthrough{}, Traits: operator.MapTraits, Speculative: true})
	gA.Connect(srcA, 0, mapA, 0)
	poolA := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	defer poolA.Close()
	engA, err := New(gA, Options{Pool: poolA, Seed: 1, Tracer: trA})
	if err != nil {
		t.Fatal(err)
	}
	if err := engA.Start(); err != nil {
		t.Fatal(err)
	}
	defer engA.Stop()

	gB := graph.New()
	clsB := gB.AddNode(graph.Node{
		Name:        "classifier",
		Op:          &operator.Classifier{Classes: 2},
		Traits:      operator.ClassifierTraits(2),
		Speculative: true,
	})
	poolB := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	defer poolB.Close()
	engB, err := New(gB, Options{Pool: poolB, Seed: 2, Tracer: trB})
	if err != nil {
		t.Fatal(err)
	}
	if err := engB.Start(); err != nil {
		t.Fatal(err)
	}
	defer engB.Stop()

	sink := &sinkCollector{}
	if err := engB.Subscribe(clsB, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	h, err := engB.BridgeIn(clsB, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.ListenConn("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := engA.BridgeOutReliableOpts(mapA, 0, srv.Addr(), BridgeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const total = 16
	s, err := engA.Source(srcA)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []event.Event
	for i := 0; i < total; i++ {
		ev, err := s.Emit(uint64(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		emitted = append(emitted, ev)
	}
	if finals := sink.waitFinals(t, total); len(finals) < total {
		t.Fatalf("finals = %d", len(finals))
	}
	drainOrDump(t, engB, 10*time.Second)

	// Every sink delivery must still carry the source-derived trace id.
	for _, ev := range sink.finals() {
		if ev.Trace == 0 {
			t.Fatalf("finalized event %s arrived with no trace id", ev.ID)
		}
	}

	if err := trA.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := trB.Flush(); err != nil {
		t.Fatal(err)
	}
	spansA, err := metrics.ReadSpans(&bufA)
	if err != nil {
		t.Fatal(err)
	}
	spansB, err := metrics.ReadSpans(&bufB)
	if err != nil {
		t.Fatal(err)
	}
	byTrace := make(map[string]map[string]bool) // trace → procs seen
	record := func(proc string, spans []metrics.Span) {
		for _, sp := range spans {
			if sp.Trace == "" {
				continue
			}
			if byTrace[sp.Trace] == nil {
				byTrace[sp.Trace] = make(map[string]bool)
			}
			byTrace[sp.Trace][proc] = true
		}
	}
	record("engA", spansA)
	record("engB", spansB)

	for _, ev := range emitted {
		want := event.TraceOf(ev.ID)
		if ev.Trace != want {
			t.Fatalf("source stamped trace %x, want deterministic %x", ev.Trace, want)
		}
		hex := strconv.FormatUint(want, 16)
		procs := byTrace[hex]
		if !procs["engA"] || !procs["engB"] {
			t.Fatalf("lineage %s (event %s) seen in %v, want both engines", hex, ev.ID, procs)
		}
	}
}
