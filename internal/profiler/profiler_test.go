package profiler

import (
	"slices"
	"testing"
)

func TestSpaceSavingEvictsMin(t *testing.T) {
	s := newHeatmap(2)
	s.Add("a", "x", 10, 0)
	s.Add("b", "y", 1, 0)
	s.Add("c", "z", 1, 0) // evicts b, inherits its count as err
	es := s.Entries()
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
	m := Merge(a, b, nil)
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
