package cluster

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"streammine/internal/debugserver"
	"streammine/internal/event"
	"streammine/internal/metrics"
	"streammine/internal/metricstest"
	"streammine/internal/operator"
	"streammine/internal/transport"
)

// clusterTopo is the integration topology: a checkpointing stateful stage
// downstream of a bridged cut, so a reassigned partition must restore
// from its checkpoint + decision log and absorb the upstream replay.
const clusterTopo = `{
  "speculative": true,
  "seed": 11,
  "nodes": [
    {"name": "src",      "type": "source", "rate": 5000, "count": 900},
    {"name": "classify", "type": "classifier", "classes": 4, "inputs": ["src"], "checkpointEvery": 32},
    {"name": "out",      "type": "sink", "inputs": ["classify"]}
  ],
  "placement": {
    "workers": 2,
    "assign": {"src": 0, "classify": 1, "out": 1}
  }
}`

// clusterFlowTopo is clusterTopo with engine-wide flow control: bounded
// mailboxes (credit window 8 on every edge, including the bridged cut).
// At rate 5000 against an 8-event window the
// upstream bridge runs credit-exhausted for most of the run, so a worker
// kill during it exercises the reconnect path that must re-grant credits
// before replay (a stranded window would wedge recovery forever).
const clusterFlowTopo = `{
  "speculative": true,
  "seed": 11,
  "flow": {"mailboxCap": 8},
  "nodes": [
    {"name": "src",      "type": "source", "rate": 5000, "count": 900},
    {"name": "classify", "type": "classifier", "classes": 4, "inputs": ["src"], "checkpointEvery": 32},
    {"name": "out",      "type": "sink", "inputs": ["classify"]}
  ],
  "placement": {
    "workers": 2,
    "assign": {"src": 0, "classify": 1, "out": 1}
  }
}`

// sinkSet collects finalized sink-event identities across workers, and
// each event's value by key.
type sinkSet struct {
	mu   sync.Mutex
	seen map[event.ID]bool
	per  map[string]int
	vals map[uint64]uint64
}

func newSinkSet() *sinkSet {
	return &sinkSet{seen: make(map[event.ID]bool), per: make(map[string]int), vals: make(map[uint64]uint64)}
}

func (s *sinkSet) observer(worker string) func(string, event.Event) {
	return func(_ string, ev event.Event) {
		s.mu.Lock()
		s.seen[ev.ID] = true
		s.per[worker]++
		s.vals[ev.Key] = operator.DecodeValue(ev.Payload)
		s.mu.Unlock()
	}
}

func (s *sinkSet) busiest(min int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for w, n := range s.per {
		if n >= min {
			return w
		}
	}
	return ""
}

func (s *sinkSet) count(worker string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.per[worker]
}

func (s *sinkSet) ids() map[event.ID]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[event.ID]bool, len(s.seen))
	for id := range s.seen {
		out[id] = true
	}
	return out
}

// runCluster deploys the given topology on an in-process coordinator +
// two workers. With chaos set, the worker hosting the sink partition is
// torn down mid-run and its partition must be reassigned and recovered
// for the run to complete. Returns what the sinks saw.
func runCluster(t *testing.T, topo string, chaos bool, reg *metrics.Registry) *sinkSet {
	t.Helper()
	stateDir := t.TempDir()
	coord, err := NewCoordinator([]byte(topo), CoordinatorOptions{
		Addr:             "127.0.0.1:0",
		HeartbeatTimeout: 400 * time.Millisecond,
		Metrics:          reg,
		Logf:             t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	sinks := newSinkSet()
	workers := make(map[string]*Worker, 2)
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("w%d", i+1)
		w, err := StartWorker(WorkerOptions{
			Name:             name,
			CoordAddr:        coord.Addr(),
			StateDir:         stateDir,
			HeartbeatTimeout: 400 * time.Millisecond,
			OnSinkEvent:      sinks.observer(name),
			Logf: func(format string, args ...any) {
				t.Logf("["+name+"] "+format, args...)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		workers[name] = w
	}

	if chaos {
		// Kill whichever worker externalizes sink events once the run is
		// demonstrably under way (so there is state to recover).
		deadline := time.Now().Add(15 * time.Second)
		var victim string
		for victim == "" {
			if time.Now().After(deadline) {
				t.Fatal("no worker produced sink output to kill")
			}
			victim = sinks.busiest(50)
			time.Sleep(5 * time.Millisecond)
		}
		t.Logf("killing %s after %d sink events", victim, sinks.count(victim))
		_ = workers[victim].Close()
	}

	select {
	case <-coord.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("cluster run did not complete")
	}
	if err := coord.Err(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	return sinks
}

// TestClusterRunsTopology is the basic distributed path: two workers, a
// bridged cut edge, full completion detection.
func TestClusterRunsTopology(t *testing.T) {
	ids := runCluster(t, clusterTopo, false, nil).ids()
	if len(ids) != 900 {
		t.Fatalf("sink identity set = %d events, want 900", len(ids))
	}
}

// TestClusterSourcesCarryValues runs src → count_window_avg (window 4) →
// sink across two workers. A cluster source's payload is the value of its
// sequence number, as in single-process mode, so the window that ends at
// sequence 4k averages 4k-3 … 4k to 4k-2 (integer division).
func TestClusterSourcesCarryValues(t *testing.T) {
	const topo = `{
  "speculative": true,
  "seed": 5,
  "nodes": [
    {"name": "src", "type": "source", "rate": 5000, "count": 400},
    {"name": "avg", "type": "count_window_avg", "window": 4, "inputs": ["src"]},
    {"name": "out", "type": "sink", "inputs": ["avg"]}
  ],
  "placement": {"workers": 2, "assign": {"src": 0, "avg": 1, "out": 1}}
}`
	sinks := runCluster(t, topo, false, nil)
	sinks.mu.Lock()
	defer sinks.mu.Unlock()
	vals := sinks.vals
	if len(vals) != 100 {
		t.Fatalf("sink saw %d windows, want 100", len(vals))
	}
	for k := uint64(1); k <= 100; k++ {
		if got, ok := vals[4*k]; !ok || got != 4*k-2 {
			t.Fatalf("window ending at %d: value %d (present %v), want %d", 4*k, got, ok, 4*k-2)
		}
	}
}

// TestHeartbeatInterval checks the heartbeat period a timeout implies: a
// quarter of the timeout, at most 100 ms.
func TestHeartbeatInterval(t *testing.T) {
	for _, c := range []struct{ timeout, want time.Duration }{
		{time.Second, 100 * time.Millisecond},
		{500 * time.Millisecond, 100 * time.Millisecond},
		{150 * time.Millisecond, 37500 * time.Microsecond},
	} {
		if got := heartbeatInterval(c.timeout); got != c.want {
			t.Errorf("heartbeatInterval(%v) = %v, want %v", c.timeout, got, c.want)
		}
	}
}

// TestClusterFailover kills the worker hosting the stateful sink
// partition mid-run; the coordinator must detect the failure, reassign
// the partition to the survivor, and the recovered run must externalize
// exactly the same identity set as a failure-free run.
func TestClusterFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("failover test exercises multi-second failure detection")
	}
	baseline := runCluster(t, clusterTopo, false, nil).ids()
	reg := metrics.NewRegistry()
	chaos := runCluster(t, clusterTopo, true, reg).ids()
	if len(chaos) != len(baseline) {
		t.Fatalf("chaos run externalized %d distinct events, baseline %d", len(chaos), len(baseline))
	}
	for id := range baseline {
		if !chaos[id] {
			t.Fatalf("event %v missing from chaos run", id)
		}
	}
	if v, ok := metricstest.Value(reg, "cluster_reassignments_total", nil); !ok || v < 1 {
		t.Fatalf("cluster_reassignments_total = %v (ok=%v), want >= 1", v, ok)
	}
}

// TestClusterFailoverWithFlowControl reruns the failover drill with flow
// control on every node and the cut edge's bridge credit-gated at 8. The
// victim dies while the upstream bridge is (almost certainly) out of
// credits; the survivor's reconnect must reset the window before replay
// or the run can never complete. Precise recovery must hold unchanged:
// identical identity set, no losses, duplicates suppressed.
func TestClusterFailoverWithFlowControl(t *testing.T) {
	if testing.Short() {
		t.Skip("failover test exercises multi-second failure detection")
	}
	baseline := runCluster(t, clusterFlowTopo, false, nil).ids()
	if len(baseline) != 900 {
		t.Fatalf("flow-controlled baseline externalized %d distinct events, want 900", len(baseline))
	}
	chaos := runCluster(t, clusterFlowTopo, true, nil).ids()
	if len(chaos) != len(baseline) {
		t.Fatalf("chaos run externalized %d distinct events, baseline %d", len(chaos), len(baseline))
	}
	for id := range baseline {
		if !chaos[id] {
			t.Fatalf("event %v missing from chaos run", id)
		}
	}
}

// TestWorkerDegraded joins a worker to a control server that never
// heartbeats; the worker must stay up but report the coordinator as a
// degraded dependency.
func TestWorkerDegraded(t *testing.T) {
	srv, err := transport.ListenConn("127.0.0.1:0", func(transport.Conn, transport.Message) {})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	w, err := StartWorker(WorkerOptions{
		Name:             "lonely",
		CoordAddr:        srv.Addr(),
		StateDir:         t.TempDir(),
		HeartbeatTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if down := w.Degraded(); len(down) != 0 {
		t.Fatalf("degraded immediately after join: %v", down)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		down := w.Degraded()
		if len(down) == 1 && down[0] == coordinatorPeer {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("degraded = %v, want [coordinator]", down)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHealthzDegradedAndRecovery drives the full degraded round trip
// through the HTTP probe: a worker whose coordinator goes silent must
// flip /healthz from "ok" to "degraded: coordinator", and a coordinator
// that resumes heartbeating must flip it back — the detector resurrects
// peers on any observed control message, so a transient partition does
// not leave the probe stuck degraded.
func TestHealthzDegradedAndRecovery(t *testing.T) {
	var mu sync.Mutex
	var ctl transport.Conn
	srv, err := transport.ListenConn("127.0.0.1:0", func(c transport.Conn, _ transport.Message) {
		mu.Lock()
		ctl = c
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	w, err := StartWorker(WorkerOptions{
		Name:             "probe",
		CoordAddr:        srv.Addr(),
		StateDir:         t.TempDir(),
		HeartbeatTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	ds := debugserver.New(metrics.NewRegistry(), nil)
	ds.SetDegraded(w.Degraded)
	addr, err := ds.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	healthz := func() string {
		t.Helper()
		resp, err := http.Get("http://" + addr + "/healthz")
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("healthz read: %v", err)
		}
		return string(body)
	}
	waitBody := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			body := healthz()
			if strings.HasPrefix(body, want) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("healthz = %q, want prefix %q", body, want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Joined and observed: the probe starts healthy.
	if body := healthz(); !strings.HasPrefix(body, "ok") {
		t.Fatalf("healthz right after join = %q, want ok", body)
	}

	// The fake coordinator never heartbeats, so silence past the timeout
	// must surface through the probe.
	waitBody("degraded: coordinator")

	// Resume heartbeats on the captured control connection; the detector
	// resurrects the peer and the probe returns to ok.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				mu.Lock()
				c := ctl
				mu.Unlock()
				if c != nil {
					_ = c.Send(transport.Message{Type: transport.MsgHeartbeat})
				}
			}
		}
	}()
	waitBody("ok")
}
