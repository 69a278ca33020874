package core

import (
	"encoding/json"
	"testing"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/profiler"
	"streammine/internal/state"
	"streammine/internal/stm"
	"streammine/internal/storage"
)

// profiledNode builds an unstarted profiled engine around one operator
// node, "sketch-op", fed by "upstream".
func profiledNode(t *testing.T) (*Engine, *node) {
	t.Helper()
	g := graph.New()
	up := g.AddNode(graph.Node{Name: "upstream"})
	op := g.AddNode(graph.Node{Name: "sketch-op", Op: &operator.Passthrough{}, Speculative: true})
	g.Connect(up, 0, op, 0)
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	t.Cleanup(func() { pool.Close() })
	eng, err := New(g, Options{Seed: 1, Pool: pool, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	return eng, eng.nodes[op]
}

// TestLedgerAndSummary writes every waste column of a node by hand and
// reads them back through Waste: wasted CPU by cause, attempt CPU,
// witnesses by kind, the heatmap cell their address names, the caused-by
// charge and the waste percentage, as JSON.
func TestLedgerAndSummary(t *testing.T) {
	eng, n := profiledNode(t)
	arr, err := state.NewArray(n.mem, 8)
	if err != nil {
		t.Fatal(err)
	}
	arr.Named(n.mem, "sketch")
	addr := stm.Addr(3)
	if got := state.Names(n.mem).Describe(addr); got != "sketch[3]" {
		t.Fatalf("address %d is named %q, want sketch[3]", addr, got)
	}
	for i := 0; i < 5; i++ {
		n.RecordConflict(stm.ConflictWitness{Kind: stm.ConflictWriteWrite, Addr: addr})
	}
	n.RecordConflict(stm.ConflictWitness{Kind: stm.ConflictCascade, Addr: 0})
	n.cAttemptNs.Add(10e6)
	n.abort(profiler.CauseConflict, false, 4e6, event.ID{}, 0)
	n.abort(profiler.CauseRevoke, false, 1e6, event.ID{}, 0)
	n.causedBy(0, event.SourceID(eng.nodes[0].opID))

	s := eng.Waste()
	nw := nodeWaste(t, s, "sketch-op")
	if nw.WastedCPUNs["conflict"] != 4e6 || nw.WastedCPUNs["revoke"] != 1e6 {
		t.Fatalf("wasted ns = %v", nw.WastedCPUNs)
	}
	if nw.AttemptCPUNs != 1e7 {
		t.Fatalf("attempt ns = %d", nw.AttemptCPUNs)
	}
	if nw.Witnesses["write-write"] != 5 || nw.Witnesses["cascade"] != 1 {
		t.Fatalf("witnesses = %v", nw.Witnesses)
	}
	if nw.AbortedAttempts["conflict"] != 1 || nw.AbortedAttempts["revoke"] != 1 || nw.SpecDepthCount != 2 {
		t.Fatalf("aborted attempts = %v, %d depths", nw.AbortedAttempts, nw.SpecDepthCount)
	}
	if len(s.Heatmap) == 0 || s.Heatmap[0].Node != "sketch-op" || s.Heatmap[0].State != "sketch[3]" || s.Heatmap[0].Count != 5 {
		t.Fatalf("heatmap = %+v", s.Heatmap)
	}
	if s.WastePct() != 50 {
		t.Fatalf("waste pct = %f, want 50", s.WastePct())
	}
	if len(s.CausedBy) != 1 || s.CausedBy[0] != (profiler.CauseEntry{Source: "upstream", Count: 1}) {
		t.Fatalf("caused by = %+v", s.CausedBy)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("summary must be JSON-serializable: %v", err)
	}
}

// TestRingOverwriteCountsDropped: witnesses overwritten before a drain
// read them are counted as dropped, and the next drain starts where the
// previous one stopped.
func TestRingOverwriteCountsDropped(t *testing.T) {
	eng, n := profiledNode(t)
	for i := 0; i < witnessRingSize+6; i++ {
		n.RecordConflict(stm.ConflictWitness{Kind: stm.ConflictValidation, Addr: 0})
	}
	s := eng.Waste()
	if s.WitnessesDropped != 6 {
		t.Fatalf("dropped = %d, want 6", s.WitnessesDropped)
	}
	if len(s.Heatmap) != 1 || s.Heatmap[0].Count != witnessRingSize {
		t.Fatalf("heatmap = %+v, want one cell of %d", s.Heatmap, witnessRingSize)
	}
	n.RecordConflict(stm.ConflictWitness{Kind: stm.ConflictValidation})
	if s := eng.Waste(); s.WitnessesDropped != 6 || s.Heatmap[0].Count != witnessRingSize+1 {
		t.Fatalf("after one more witness: dropped %d, heatmap %+v", s.WitnessesDropped, s.Heatmap)
	}
}

// TestRecordConflictZeroAlloc: witness recording must not allocate even
// with profiling on — it runs on STM abort paths.
func TestRecordConflictZeroAlloc(t *testing.T) {
	_, n := profiledNode(t)
	w := stm.ConflictWitness{Kind: stm.ConflictWriteWrite, Addr: 1}
	if allocs := testing.AllocsPerRun(200, func() { n.RecordConflict(w) }); allocs != 0 {
		t.Fatalf("RecordConflict allocated %.1f per run, want 0", allocs)
	}
}
