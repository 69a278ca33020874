package cluster

import (
	"fmt"
	"testing"
	"time"

	"streammine/internal/metrics"
	"streammine/internal/metricstest"
)

// runProfiledCluster runs clusterTopo to completion on two workers with
// ProfileSpeculation on; coordReg and workerReg (either may be nil)
// receive the coordinator's and the workers' cluster series.
func runProfiledCluster(t *testing.T, coordReg, workerReg *metrics.Registry) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator([]byte(clusterTopo), CoordinatorOptions{
		Addr:              "127.0.0.1:0",
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
		Metrics:           coordReg,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })

	stateDir := t.TempDir()
	sinks := newSinkSet()
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("w%d", i+1)
		w, err := StartWorker(WorkerOptions{
			Name:               name,
			CoordAddr:          coord.Addr(),
			StateDir:           stateDir,
			HeartbeatInterval:  50 * time.Millisecond,
			HeartbeatTimeout:   400 * time.Millisecond,
			ProfileSpeculation: true,
			Metrics:            workerReg,
			OnSinkEvent:        sinks.observer(name),
			Logf: func(format string, args ...any) {
				t.Logf("["+name+"] "+format, args...)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
	}

	select {
	case <-coord.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("cluster run did not complete")
	}
	if err := coord.Err(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return coord
}

// TestClusterWasteRollup runs the two-worker topology with
// ProfileSpeculation on and asserts the rollup chain: every partition
// engine profiles, workers attach cumulative waste summaries to STATUS
// heartbeats, and the coordinator merges them into Waste()/View() plus
// the aggregated cluster_waste_* series.
func TestClusterWasteRollup(t *testing.T) {
	reg := metrics.NewRegistry()
	coord := runProfiledCluster(t, reg, nil)

	// The coordinator keeps the last waste summary each partition shipped,
	// so the merged view survives partition shutdown.
	sum := coord.Waste()
	if sum == nil {
		t.Fatal("coordinator Waste() = nil after a profiled run")
	}
	nw := sum.NodeByName("classify")
	if nw == nil {
		t.Fatalf("merged summary has no ledger for classify; nodes: %+v", sum.Nodes)
	}
	if nw.AttemptCPUNs <= 0 {
		t.Errorf("classify attempt_cpu_ns = %d, want > 0", nw.AttemptCPUNs)
	}

	view := coord.View()
	if view.Waste == nil {
		t.Fatal("View().Waste = nil after a profiled run")
	}
	if len(view.Workers) != 2 {
		t.Errorf("View().Workers = %v, want 2 workers", view.Workers)
	}
	if len(view.Partitions) == 0 {
		t.Error("View().Partitions is empty")
	}

	// Aggregated series must be registered and agree with the merged
	// summary at scrape time.
	if v, ok := reg.Value("cluster_waste_aborted_attempts_total", metrics.Labels{"cause": "conflict"}); !ok {
		t.Error("cluster_waste_aborted_attempts_total{cause=conflict} not registered")
	} else if want := float64(nw.AbortedAttempts["conflict"]); v < want {
		t.Errorf("cluster_waste_aborted_attempts_total{conflict} = %v, classify ledger alone has %v", v, want)
	}
	if _, ok := reg.Value("cluster_waste_cpu_pct", nil); !ok {
		t.Error("cluster_waste_cpu_pct not registered")
	}

	metricstest.Documented(t, reg, "cluster_waste_", "OBSERVABILITY.md", 5)
}

// statusBytesBudget bounds one steady-state STATUS report of the
// two-partition paper topology (clusterTopo) with every section on. The
// sections are running totals and bounded snapshots, so a report does not
// grow with the length of the run; one that does — a plane shipping its
// history on every heartbeat — overruns this and is named below.
const statusBytesBudget = 4096

// TestStatusBytesBudget runs the profiled two-worker topology and holds
// the largest STATUS any worker encoded (cluster_status_bytes) under the
// budget, reporting the coordinator's cached body size per section when
// it is not.
func TestStatusBytesBudget(t *testing.T) {
	reg := metrics.NewRegistry()
	coord := runProfiledCluster(t, metrics.NewRegistry(), reg)
	sizes := reg.HDRCounts("cluster_status_bytes", "")
	if sizes.Count() == 0 {
		t.Fatal("cluster_status_bytes observed no STATUS report")
	}
	t.Logf("STATUS bytes over %d reports: p50 %d, max %d", sizes.Count(), sizes.Quantile(0.5), sizes.Max())
	if sizes.Max() > statusBytesBudget {
		coord.mu.Lock()
		for id, cp := range coord.parts {
			for name, body := range cp.latest {
				t.Logf("partition %d section %s: %d bytes", id, name, len(body))
			}
		}
		coord.mu.Unlock()
		t.Errorf("largest STATUS report was %d bytes, budget %d", sizes.Max(), statusBytesBudget)
	}
	metricstest.Documented(t, reg, "cluster_status_", "OBSERVABILITY.md", 1)
}
