package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streammine/internal/metrics"
	"streammine/internal/procharness"
	"streammine/internal/recovery"
	"streammine/internal/tracetool"
)

// e2eTopo pins the source to one partition and the checkpointing stateful
// stage plus sink to the other, so killing the sink-side worker forces a
// checkpoint + decision-log + upstream-replay recovery on the survivor.
const e2eTopo = `{
  "speculative": true,
  "seed": 7,
  "nodes": [
    {"name": "src",      "type": "source", "rate": 1500, "count": 1000},
    {"name": "classify", "type": "classifier", "classes": 4, "inputs": ["src"], "checkpointEvery": 32},
    {"name": "out",      "type": "sink", "inputs": ["classify"]}
  ],
  "placement": {
    "workers": 2,
    "assign": {"src": 0, "classify": 1, "out": 1}
  }
}`

// e2eFlowTopo adds engine-wide flow control to e2eTopo: every mailbox is
// bounded at 8 and the bridged cut edge is credit-gated with the same
// window, so at rate 1500 the upstream bridge spends most of the run with
// its credits exhausted — the state the SIGKILL below must interrupt.
const e2eFlowTopo = `{
  "speculative": true,
  "seed": 7,
  "flow": {"mailboxCap": 8},
  "nodes": [
    {"name": "src",      "type": "source", "rate": 1500, "count": 1000},
    {"name": "classify", "type": "classifier", "classes": 4, "inputs": ["src"], "checkpointEvery": 32},
    {"name": "out",      "type": "sink", "inputs": ["classify"]}
  ],
  "placement": {
    "workers": 2,
    "assign": {"src": 0, "classify": 1, "out": 1}
  }
}`

// buildBinary compiles the streammine command once per test run.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin, err := procharness.BuildBinary(t.TempDir(), ".")
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// runClusterProcesses spawns one coordinator and two worker processes over
// a shared state directory via procharness. With chaos set it SIGKILLs
// whichever worker externalizes sink output once the run is under way.
// With traceDir set, every process writes its lifecycle trace to
// <traceDir>/<proc>.jsonl. Returns the distinct sink identity set
// externalized across all workers.
func runClusterProcesses(t *testing.T, bin, topo string, chaos bool, traceDir string) map[string]bool {
	t.Helper()
	cl, err := procharness.Start(procharness.Options{
		Bin:      bin,
		Topology: topo,
		Dir:      t.TempDir(),
		Workers:  2,
		TraceDir: traceDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if chaos {
		victim, err := cl.Sinks.WaitBusiest(30, 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("SIGKILL %s after %d distinct sink events", victim, cl.Sinks.Distinct())
		if err := cl.KillWorker(victim); err != nil {
			t.Fatalf("kill %s: %v", victim, err)
		}
	}

	if err := cl.WaitDone(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	ids, _ := cl.Sinks.Snapshot()
	return ids
}

// TestClusterProcessesFailover is the full multi-process chaos drill: a
// coordinator and two workers as real OS processes, SIGKILL of the worker
// holding the stateful sink partition, and identity-set equality between
// the recovered run and a failure-free run (the paper's precise-recovery
// criterion: no event lost, duplicates suppressed).
func TestClusterProcessesFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e: builds a binary and runs multi-second failure detection")
	}
	bin := buildBinary(t)
	baseline := runClusterProcesses(t, bin, e2eTopo, false, "")
	if len(baseline) != 1000 {
		t.Fatalf("baseline externalized %d distinct events, want 1000", len(baseline))
	}
	chaos := runClusterProcesses(t, bin, e2eTopo, true, "")
	if len(chaos) != len(baseline) {
		t.Fatalf("chaos run externalized %d distinct events, baseline %d", len(chaos), len(baseline))
	}
	for id := range baseline {
		if !chaos[id] {
			t.Fatalf("event %s missing from chaos run", id)
		}
	}
}

// TestClusterProcessesFailoverWithFlow SIGKILLs a worker mid-run with
// credit-based flow control active on the bridged cut edge (window 8, so
// the upstream bridge is credit-starved almost continuously at rate 1500,
// and the events queued behind it cross in EVENT_BATCH frames of up to
// two). The reassigned partition's bridges must re-grant a fresh window
// on reconnect; precise recovery must externalize every event exactly
// once despite the bounded queues.
func TestClusterProcessesFailoverWithFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e: builds a binary and runs multi-second failure detection")
	}
	bin := buildBinary(t)
	chaos := runClusterProcesses(t, bin, e2eFlowTopo, true, "")
	if len(chaos) != 1000 {
		t.Fatalf("flow-controlled chaos run externalized %d distinct events, want 1000", len(chaos))
	}
}

// TestClusterTracedFailover is the distributed-latency-attribution chaos
// drill: the same two-worker SIGKILL failover, run with per-process
// lifecycle tracing on. The per-process JSONL files — including the
// killed worker's, which may end in a torn line — must merge into one
// coherent timeline in which (a) at least 99% of externalized events have
// a complete reconstructable lineage (trace ids are deterministic, so the
// replayed incarnation stitches into the original lineage), and (b) no
// span is attributable to a dead partition epoch.
func TestClusterTracedFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e: builds a binary and runs multi-second failure detection")
	}
	bin := buildBinary(t)
	traceDir := t.TempDir()
	ids := runClusterProcesses(t, bin, e2eTopo, true, traceDir)
	if len(ids) != 1000 {
		t.Fatalf("traced chaos run externalized %d distinct events, want 1000", len(ids))
	}

	files, err := filepath.Glob(filepath.Join(traceDir, "*.jsonl"))
	if err != nil || len(files) < 3 {
		t.Fatalf("trace files = %v (err %v), want coordinator + 2 workers", files, err)
	}
	set, err := tracetool.Load(files...)
	if err != nil {
		t.Fatalf("merging traces: %v", err)
	}
	t.Logf("merged %d spans from %d files (%d torn tails)", len(set.Spans), len(set.Files), set.TornTails)

	externalized, complete := 0, 0
	for _, l := range set.Lineages() {
		if !l.Has(metrics.PhaseExternalize) {
			continue
		}
		externalized++
		if l.Complete() {
			complete++
		}
	}
	if externalized < 1000 {
		t.Errorf("trace shows %d externalized lineages, want >= 1000", externalized)
	}
	if float64(complete) < 0.99*float64(externalized) {
		t.Errorf("only %d of %d externalized lineages are complete, want >= 99%%", complete, externalized)
	}

	// The epoch invariant must hold outright: a SIGKILLed process cannot
	// stamp spans after its partitions were reassigned.
	for _, err := range set.Validate() {
		if strings.Contains(err.Error(), "zombie") {
			t.Errorf("dead-epoch violation: %v", err)
		}
	}

	// The reassignment must be visible as an epoch bump in the merged
	// trace: some partition must have records from two different procs.
	owners := make(map[int]map[string]bool)
	for _, e := range set.Epochs() {
		if owners[e.Partition] == nil {
			owners[e.Partition] = make(map[string]bool)
		}
		owners[e.Partition][e.Proc] = true
	}
	moved := false
	for _, procs := range owners {
		if len(procs) > 1 {
			moved = true
		}
	}
	if !moved {
		t.Error("no partition shows epoch records from two processes; failover not captured in trace")
	}
}

// TestClusterRecoveryAnatomy SIGKILLs a worker and asserts the recovery
// records of the processes' crash trails fold into the complete phase
// chain for the incident: detect, decide, restore, refill, replay and
// catch-up all present and closed, timestamps monotone within the
// incident, no large uncovered windows on the timeline, and per-phase
// durations that sum to roughly the end-to-end outage.
func TestClusterRecoveryAnatomy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e: builds a binary and runs multi-second failure detection")
	}
	bin := buildBinary(t)
	// The cheap trail: process-level records only, no event lineages.
	traceDir := t.TempDir()
	sampleNone := []string{"-trace-sample", "0"}
	cl, err := procharness.Start(procharness.Options{
		Bin:        bin,
		Topology:   e2eTopo,
		Dir:        t.TempDir(),
		Workers:    2,
		CoordArgs:  sampleNone,
		WorkerArgs: sampleNone,
		TraceDir:   traceDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	victim, err := cl.Sinks.WaitBusiest(30, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("SIGKILL %s after %d distinct sink events", victim, cl.Sinks.Distinct())
	if err := cl.KillWorker(victim); err != nil {
		t.Fatalf("kill %s: %v", victim, err)
	}
	if err := cl.WaitDone(90 * time.Second); err != nil {
		t.Fatal(err)
	}

	paths, _ := filepath.Glob(filepath.Join(traceDir, "*.jsonl"))
	set, err := tracetool.Load(paths...)
	if err != nil {
		t.Fatal(err)
	}
	rep := recovery.Incidents(set.Spans)
	if len(rep.Incidents) == 0 {
		t.Fatal("the trails hold no recovery incident")
	}
	inc := rep.Incidents[len(rep.Incidents)-1]
	if inc.Victim != victim {
		t.Errorf("incident victim = %q, want %q", inc.Victim, victim)
	}
	if !inc.Complete {
		t.Fatalf("incident never completed: %+v", inc)
	}
	if inc.DetectedNs < inc.StartNs {
		t.Errorf("DetectedNs %d before incident start %d", inc.DetectedNs, inc.StartNs)
	}

	// The full chain: every phase present with a measurable duration.
	for _, ph := range recovery.Phases {
		if inc.PhaseMs[ph] <= 0 {
			t.Errorf("phase %s missing from incident (PhaseMs=%v)", ph, inc.PhaseMs)
		}
	}

	// Monotone, closed, in-window spans, sorted by start.
	var prevStart int64
	var end int64
	for _, s := range inc.Spans {
		if s.EndNs == 0 {
			t.Errorf("span %s/p%d still open in a complete incident", s.Phase, s.Partition)
			continue
		}
		if s.EndNs < s.StartNs {
			t.Errorf("span %s/p%d ends before it starts (%d < %d)", s.Phase, s.Partition, s.EndNs, s.StartNs)
		}
		if s.StartNs < inc.StartNs {
			t.Errorf("span %s/p%d starts before the incident", s.Phase, s.Partition)
		}
		if s.StartNs < prevStart {
			t.Errorf("spans not sorted by start time at %s/p%d", s.Phase, s.Partition)
		}
		prevStart = s.StartNs
		if s.EndNs > end {
			end = s.EndNs
		}
	}

	// No gaps beyond scheduling slack: the union of all spans must cover
	// nearly the whole incident window (STATUS folding can defer the
	// coordinator-side catch-up start by a heartbeat or two).
	_, covered := recovery.Union(inc.Spans)
	window := end - inc.StartNs
	if window <= 0 {
		t.Fatalf("degenerate incident window %d", window)
	}
	uncoveredMs := float64(window-covered) / 1e6
	if slack := 0.25*inc.TotalMs + 300; uncoveredMs > slack {
		t.Errorf("timeline has %.1fms uncovered (window %.1fms, slack %.1fms)",
			uncoveredMs, float64(window)/1e6, slack)
	}

	// Phases are disjoint per partition, so their union durations must
	// sum to within tolerance of the end-to-end outage.
	var sum float64
	for _, v := range inc.PhaseMs {
		sum += v
	}
	if sum < 0.65*inc.TotalMs || sum > 1.35*inc.TotalMs {
		t.Errorf("phase sum %.1fms vs total %.1fms outside [0.65, 1.35] tolerance (PhaseMs=%v)",
			sum, inc.TotalMs, inc.PhaseMs)
	}
	t.Logf("recovery anatomy: total %.1fms, phases %v, dominant %s, replay %.0f events/sec",
		inc.TotalMs, inc.PhaseMs, inc.DominantPhase, inc.ReplayEventsPerSec)
}
