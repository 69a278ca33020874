package core

import (
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
)

func buildDetachPipeline(t *testing.T, srcFlow *flow.Limits) (*Engine, *storage.Pool, graph.NodeID, graph.NodeID) {
	t.Helper()
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src", Flow: srcFlow})
	stage := g.AddNode(graph.Node{
		Name: "stage", Op: &operator.Classifier{Classes: 4},
		Traits: operator.ClassifierTraits(4), Speculative: true,
	})
	g.Connect(src, 0, stage, 0)
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	eng, err := New(g, Options{Seed: 7, Pool: pool})
	if err != nil {
		pool.Close()
		t.Fatal(err)
	}
	return eng, pool, src, stage
}

func TestDetachSourceAdmissionRejectsNonSource(t *testing.T) {
	eng, pool, _, stage := buildDetachPipeline(t, nil)
	defer pool.Close()
	if _, _, err := eng.DetachSourceAdmission(stage); err == nil {
		t.Fatal("detaching admission from an operator node succeeded")
	}
}

func TestDetachSourceAdmissionNoFlowLimits(t *testing.T) {
	eng, pool, src, _ := buildDetachPipeline(t, nil)
	defer pool.Close()
	adm, probe, err := eng.DetachSourceAdmission(src)
	if err != nil {
		t.Fatal(err)
	}
	if adm != nil {
		t.Fatal("source without flow limits returned a non-nil admission controller")
	}
	if probe == nil {
		t.Fatal("pressure probe is nil")
	}
	probe() // must be callable even without flow limits
}

// TestDetachSourceAdmissionBypassesShed is the gateway contract: once the
// controller is detached, the caller owns the admission decision, so
// emissions no longer pass through the node's shed policy and every
// emitted record receives the next contiguous sequence — no sequence
// burn, no surprise ErrShed.
func TestDetachSourceAdmissionBypassesShed(t *testing.T) {
	// An attached controller with this config would shed nearly every
	// record of a burst: 1 token per 1000 seconds, bucket depth 1.
	srcFlow := &flow.Limits{AdmitRate: 0.001, AdmitBurst: 1, Shed: true}
	eng, pool, src, _ := buildDetachPipeline(t, srcFlow)
	defer pool.Close()
	adm, _, err := eng.DetachSourceAdmission(src)
	if err != nil {
		t.Fatal(err)
	}
	if adm == nil {
		t.Fatal("admission controller not returned despite AdmitRate > 0")
	}
	defer adm.Close()
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	h, err := eng.Source(src)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]BatchItem, 10)
	for i := range items {
		items[i] = BatchItem{Key: uint64(i), Payload: operator.EncodeValue(uint64(i))}
	}
	evs, err := h.EmitBatch(items)
	if err != nil {
		t.Fatalf("post-detach EmitBatch hit admission control: %v", err)
	}
	if len(evs) != len(items) {
		t.Fatalf("emitted %d events, want %d", len(evs), len(items))
	}
	for i, ev := range evs {
		if ev.ID.Seq != event.Seq(i+1) {
			t.Fatalf("event %d has seq %d, want %d (sequence burned?)", i, ev.ID.Seq, i+1)
		}
	}
	// The detached controller still works standalone for its new owner.
	// The first over-burst take is allowed against the full bucket; the
	// second finds it dry and sheds — proving the ten emissions above
	// never touched the bucket.
	if got := adm.AdmitN(5); got != flow.Admitted {
		t.Fatalf("first detached AdmitN = %v, want Admitted (full bucket)", got)
	}
	if got := adm.AdmitN(5); got != flow.Shed {
		t.Fatalf("second detached AdmitN = %v, want Shed", got)
	}
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
}
