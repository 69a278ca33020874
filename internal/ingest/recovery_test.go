package ingest

import (
	"sync"
	"testing"
	"time"

	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/metricstest"
	"streammine/internal/operator"
	"streammine/internal/storage"
)

// buildIngestPipeline builds src -> stage where src is fed by the
// gateway. The engine's own state lives on a memory disk: these tests
// exercise the *gateway's* durability, whose admission log replays into a
// completely fresh engine.
func buildIngestPipeline(t *testing.T, srcFlow, stageFlow *flow.Limits, cost time.Duration, reg *metrics.Registry) (*core.Engine, *storage.Pool, graph.NodeID, graph.NodeID) {
	t.Helper()
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src", Flow: srcFlow})
	stage := g.AddNode(graph.Node{
		Name: "stage", Op: &operator.Classifier{Classes: 4, Cost: cost},
		Traits: operator.ClassifierTraits(4), Speculative: true, Flow: stageFlow,
	})
	g.Connect(src, 0, stage, 0)
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	eng, err := core.New(g, core.Options{Seed: 7, Pool: pool, Metrics: reg})
	if err != nil {
		pool.Close()
		t.Fatal(err)
	}
	return eng, pool, src, stage
}

// idSet collects the distinct event identities a subscription observes.
type idSet struct {
	mu  sync.Mutex
	ids map[event.ID]struct{}
}

func newIDSet() *idSet { return &idSet{ids: make(map[event.ID]struct{})} }

func (s *idSet) add(ev event.Event, _ bool) {
	s.mu.Lock()
	s.ids[ev.ID] = struct{}{}
	s.mu.Unlock()
}

func (s *idSet) snapshot() map[event.ID]struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[event.ID]struct{}, len(s.ids))
	for id := range s.ids {
		out[id] = struct{}{}
	}
	return out
}

// registerEngineSource detaches the source's admission controller and
// registers its handle with the gateway — the same wiring the worker and
// the single-process runner perform.
func registerEngineSource(t *testing.T, gw *Server, eng *core.Engine, src graph.NodeID) {
	t.Helper()
	adm, _, err := eng.DetachSourceAdmission(src)
	if err != nil {
		t.Fatal(err)
	}
	h, err := eng.Source(src)
	if err != nil {
		adm.Close()
		t.Fatal(err)
	}
	if err := gw.RegisterSource("src", h, adm); err != nil {
		adm.Close()
		t.Fatal(err)
	}
}

// TestGatewayRecoveryReplaysExactIdentities is the gateway's half of the
// precise-recovery contract: after losing the whole engine, a restart
// over the same admission-log directory must re-emit every acknowledged
// record with its pre-crash event identity, client retries of everything
// already acknowledged must dedup rather than duplicate, and new records
// must extend (not fork) the stream.
func TestGatewayRecoveryReplaysExactIdentities(t *testing.T) {
	dir := t.TempDir()
	const first, extra = 300, 100
	sendKeys := func(t *testing.T, c *Client, from, n int) {
		t.Helper()
		for sent := 0; sent < n; sent += 50 {
			batch := n - sent
			if batch > 50 {
				batch = 50
			}
			recs := make([]Record, batch)
			for i := range recs {
				key := uint64(from + sent + i)
				recs[i] = Record{Key: key, Payload: operator.EncodeValue(key)}
			}
			if err := c.Send(recs); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Run 1: ingest 300 records, record their engine identities, then
	// lose everything except the gateway's state directory.
	eng1, pool1, src1, _ := buildIngestPipeline(t, nil, nil, 0, nil)
	seen1 := newIDSet()
	if err := eng1.Subscribe(src1, 0, seen1.add); err != nil {
		t.Fatal(err)
	}
	if err := eng1.Start(); err != nil {
		t.Fatal(err)
	}
	gw1, err := Start(Config{Addr: "127.0.0.1:0", StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	registerEngineSource(t, gw1, eng1, src1)
	c1 := NewClient(gw1.Addr(), "src", ClientOptions{})
	sendKeys(t, c1, 1, first)
	c1.Close()
	eng1.Drain()
	if err := eng1.Err(); err != nil {
		t.Fatal(err)
	}
	ids1 := seen1.snapshot()
	if len(ids1) != first {
		t.Fatalf("run 1 produced %d distinct identities, want %d", len(ids1), first)
	}
	_ = gw1.Close()
	eng1.Stop()
	pool1.Close()

	// Run 2: a fresh engine, fresh gateway, same state directory.
	eng2, pool2, src2, _ := buildIngestPipeline(t, nil, nil, 0, nil)
	defer pool2.Close()
	defer eng2.Stop()
	seen2 := newIDSet()
	if err := eng2.Subscribe(src2, 0, seen2.add); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Start(); err != nil {
		t.Fatal(err)
	}
	gw2, err := Start(Config{Addr: "127.0.0.1:0", StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()
	registerEngineSource(t, gw2, eng2, src2) // replays the log before returning

	// A client with no memory of the first run retries everything from
	// seq 1: the rebuilt sequence floors must absorb all of it.
	c2 := NewClient(gw2.Addr(), "src", ClientOptions{})
	defer c2.Close()
	sendKeys(t, c2, 1, first)
	if got := c2.Dups(); got != first {
		t.Fatalf("retried records reported %d dups, want %d", got, first)
	}
	if st := gw2.Stats(); st.Admitted != 0 || st.Dedup != first {
		t.Fatalf("post-recovery stats = %+v, want Admitted=0 Dedup=%d", st, first)
	}
	sendKeys(t, c2, first+1, extra)
	eng2.Drain()
	if err := eng2.Err(); err != nil {
		t.Fatal(err)
	}

	ids2 := seen2.snapshot()
	if len(ids2) != first+extra {
		t.Fatalf("run 2 produced %d distinct identities, want %d", len(ids2), first+extra)
	}
	for id := range ids1 {
		if _, ok := ids2[id]; !ok {
			t.Fatalf("identity %v from run 1 missing after recovery", id)
		}
	}
}

// TestBackpressureAtEdge drives a client far past the detached engine
// admission rate and checks that the overload is absorbed at the network
// edge: records shed before the durable log (visible in Stats and in
// ingest_shed_total{reason="engine"}) while the downstream mailbox never
// exceeds its configured flow cap.
func TestBackpressureAtEdge(t *testing.T) {
	reg := metrics.NewRegistry()
	srcFlow := &flow.Limits{AdmitRate: 2000, AdmitBurst: 100, Shed: true}
	stageFlow := &flow.Limits{MailboxCap: 64, CreditWindow: 64}
	eng, pool, src, _ := buildIngestPipeline(t, srcFlow, stageFlow, 50*time.Microsecond, reg)
	defer pool.Close()
	defer eng.Stop()
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	gw, err := Start(Config{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	registerEngineSource(t, gw, eng, src)

	done := make(chan error, 1)
	go func() {
		c := NewClient(gw.Addr(), "src", ClientOptions{Backoff: time.Millisecond})
		defer c.Close()
		// Batches must stay within the stage's credit window: AcquireN
		// deliberately over-grants a batch wider than the window (so one
		// oversized batch can't deadlock an edge), which would let the
		// mailbox legitimately exceed MailboxCap by the excess.
		const total, batch = 1500, 50
		for sent := 0; sent < total; sent += batch {
			recs := make([]Record, batch)
			for i := range recs {
				key := uint64(sent + i)
				recs[i] = Record{Key: key, Payload: operator.EncodeValue(key)}
			}
			if err := c.Send(recs); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	maxDepth := 0
	sample := func() {
		for _, p := range eng.Pressure() {
			if p.Node == "stage" && p.DataDepth > maxDepth {
				maxDepth = p.DataDepth
			}
		}
	}
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			sample()
			goto loaded
		default:
			sample()
			time.Sleep(time.Millisecond)
		}
	}
loaded:
	if maxDepth > stageFlow.MailboxCap {
		t.Fatalf("stage mailbox reached %d, flow cap is %d", maxDepth, stageFlow.MailboxCap)
	}
	st := gw.Stats()
	if st.Shed == 0 {
		t.Fatal("overload produced no edge sheds; admission was not exercised")
	}
	if st.Acked != 1500 {
		t.Fatalf("acked %d records, want 1500 (retries must eventually land)", st.Acked)
	}
	if v, _ := metricstest.Value(reg, "ingest_shed_total", metrics.Labels{"tenant": "default", "reason": "engine"}); v == 0 {
		t.Fatal("ingest_shed_total{reason=engine} is zero despite sheds")
	}
	eng.Drain()
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}
