package profiler

import (
	"encoding/json"
	"slices"
	"testing"
	"time"

	"streammine/internal/stm"
)

func TestLedgerAndSummary(t *testing.T) {
	p := New()
	np := p.Node("sketch-op")
	np.SetResolver(func(a stm.Addr) string {
		if a == 3 {
			return "sketch[3]"
		}
		return "other"
	})
	for i := 0; i < 5; i++ {
		np.RecordConflict(stm.ConflictWitness{Kind: stm.ConflictWriteWrite, Addr: 3, VictimID: uint64(i)})
	}
	np.RecordConflict(stm.ConflictWitness{Kind: stm.ConflictCascade, Addr: 9})
	np.AttemptCPU(10 * time.Millisecond)
	np.AbortedAttempt(CauseConflict, 4*time.Millisecond)
	np.AbortedAttempt(CauseRevoke, 1*time.Millisecond)
	p.CausedBy("upstream", 2)

	s := p.Summary()
	i := slices.IndexFunc(s.Nodes, func(n NodeWaste) bool { return n.Node == "sketch-op" })
	if i < 0 {
		t.Fatal("node missing from summary")
	}
	nw := &s.Nodes[i]
	if nw.WastedCPUNs["conflict"] != 4e6 || nw.WastedCPUNs["revoke"] != 1e6 {
		t.Fatalf("wasted ns = %v", nw.WastedCPUNs)
	}
	if nw.AttemptCPUNs != 1e7 {
		t.Fatalf("attempt ns = %d", nw.AttemptCPUNs)
	}
	if nw.Witnesses["write-write"] != 5 || nw.Witnesses["cascade"] != 1 {
		t.Fatalf("witnesses = %v", nw.Witnesses)
	}
	if len(s.Heatmap) == 0 || s.Heatmap[0].State != "sketch[3]" || s.Heatmap[0].Count != 5 {
		t.Fatalf("heatmap = %+v", s.Heatmap)
	}
	if s.WastePct() != 50 {
		t.Fatalf("waste pct = %f, want 50", s.WastePct())
	}
	if len(s.CausedBy) != 1 || s.CausedBy[0].Source != "upstream" {
		t.Fatalf("caused by = %+v", s.CausedBy)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("summary must be JSON-serializable: %v", err)
	}
}

func TestRingOverwriteCountsDropped(t *testing.T) {
	p := New()
	np := p.Node("n")
	np.SetResolver(func(a stm.Addr) string { return "s" })
	for i := 0; i < ringSize+6; i++ {
		np.RecordConflict(stm.ConflictWitness{Kind: stm.ConflictValidation, Addr: stm.Addr(i)})
	}
	s := p.Summary()
	if s.WitnessesDropped != 6 {
		t.Fatalf("dropped = %d, want 6", s.WitnessesDropped)
	}
	if len(s.Heatmap) != 1 || s.Heatmap[0].Count != ringSize {
		t.Fatalf("heatmap = %+v, want one cell of %d", s.Heatmap, ringSize)
	}
	// The next drain starts where this one stopped.
	np.RecordConflict(stm.ConflictWitness{Kind: stm.ConflictValidation})
	if s := p.Summary(); s.WitnessesDropped != 6 || s.Heatmap[0].Count != ringSize+1 {
		t.Fatalf("after one more witness: dropped %d, heatmap %+v", s.WitnessesDropped, s.Heatmap)
	}
}

// TestRecordConflictZeroAlloc: witness recording must not allocate even
// with profiling on — it runs on STM abort paths.
func TestRecordConflictZeroAlloc(t *testing.T) {
	np := New().Node("n")
	w := stm.ConflictWitness{Kind: stm.ConflictWriteWrite, Addr: 1, VictimID: 2, OwnerID: 3}
	if allocs := testing.AllocsPerRun(200, func() { np.RecordConflict(w) }); allocs != 0 {
		t.Fatalf("RecordConflict allocated %.1f per run, want 0", allocs)
	}
}

func TestSpaceSavingEvictsMin(t *testing.T) {
	s := newSpaceSaving(2)
	s.add(heatKey{"a", "x"}, 10, 0)
	s.add(heatKey{"b", "y"}, 1, 0)
	s.add(heatKey{"c", "z"}, 1, 0) // evicts b, inherits its count as err
	es := s.entries()
	if len(es) != 2 {
		t.Fatalf("entries = %+v", es)
	}
	if es[0].Node != "a" || es[0].Count != 10 {
		t.Fatalf("top entry = %+v", es[0])
	}
	if es[1].Node != "c" || es[1].Count != 2 || es[1].Err != 1 {
		t.Fatalf("evictor entry = %+v", es[1])
	}
}

func TestMerge(t *testing.T) {
	a := &Summary{
		Nodes: []NodeWaste{{
			Node:            "op",
			AbortedAttempts: map[string]uint64{"conflict": 3},
			WastedCPUNs:     map[string]int64{"conflict": 100},
			AttemptCPUNs:    1000,
			SpecDepthMax:    4,
		}},
		Heatmap:  []HeatEntry{{Node: "op", State: "s[0]", Count: 3}},
		CausedBy: []CauseEntry{{Source: "src", Count: 1}},
	}
	b := &Summary{
		Nodes: []NodeWaste{{
			Node:            "op",
			AbortedAttempts: map[string]uint64{"conflict": 2, "revoke": 1},
			WastedCPUNs:     map[string]int64{"conflict": 50},
			AttemptCPUNs:    500,
			SpecDepthMax:    2,
		}},
		Heatmap:          []HeatEntry{{Node: "op", State: "s[0]", Count: 2}, {Node: "op", State: "s[1]", Count: 1}},
		CausedBy:         []CauseEntry{{Source: "src", Count: 4}},
		WitnessesDropped: 7,
	}
	m := Merge(8, a, b, nil)
	i := slices.IndexFunc(m.Nodes, func(n NodeWaste) bool { return n.Node == "op" })
	if i < 0 {
		t.Fatalf("merged nodes = %+v", m.Nodes)
	}
	if nw := m.Nodes[i]; nw.AbortedAttempts["conflict"] != 5 || nw.AbortedAttempts["revoke"] != 1 ||
		nw.WastedCPUNs["conflict"] != 150 || nw.AttemptCPUNs != 1500 || nw.SpecDepthMax != 4 {
		t.Fatalf("merged node = %+v", nw)
	}
	if len(m.Heatmap) != 2 || m.Heatmap[0].State != "s[0]" || m.Heatmap[0].Count != 5 {
		t.Fatalf("merged heatmap = %+v", m.Heatmap)
	}
	if m.CausedBy[0].Count != 5 || m.WitnessesDropped != 7 {
		t.Fatalf("merged = %+v", m)
	}
	if m.TotalAborted() != 6 {
		t.Fatalf("total aborted = %d", m.TotalAborted())
	}
}
