package tracetool

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"streammine/internal/metrics"
	"streammine/internal/profiler"
)

// wasteTrace builds a synthetic two-lineage trace: lineage "hotpath"
// suffers two conflict aborts and a revoke on node "agg"; lineage "calm"
// commits cleanly on node "map".
func wasteTrace(t *testing.T) *Set {
	t.Helper()
	var b bytes.Buffer
	mk := func(off int64, node, trace, event, phase, info string) {
		t.Helper()
		line, err := json.Marshal(metrics.Span{
			TS: off, Proc: "w1", Node: node, Trace: trace, Event: event, Phase: phase, Info: info,
		})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	mk(100, "src", "hotpath", "1:1", metrics.PhaseIngress, "input=0 spec=false")
	mk(200, "agg", "hotpath", "1:1", metrics.PhaseExec, "")
	mk(300, "agg", "hotpath", "1:1", metrics.PhaseAbort, "cause=conflict")
	mk(400, "agg", "hotpath", "1:1", metrics.PhaseAbort, "cause=conflict")
	mk(450, "agg", "hotpath", "100:1", metrics.PhaseRevoke, "")
	mk(500, "agg", "hotpath", "1:1", metrics.PhaseCommit, "")
	mk(110, "src", "calm", "1:2", metrics.PhaseIngress, "input=0 spec=false")
	mk(210, "map", "calm", "1:2", metrics.PhaseExec, "")
	mk(310, "map", "calm", "1:2", metrics.PhaseCommit, "")
	f, err := Read(&b)
	if err != nil {
		t.Fatal(err)
	}
	return Merge(f)
}

func TestWasteReportJoinsLedger(t *testing.T) {
	set := wasteTrace(t)
	sum := &profiler.Summary{
		Nodes: []profiler.NodeWaste{{
			Node:            "agg",
			AbortedAttempts: map[string]uint64{"conflict": 2},
			WastedCPUNs:     map[string]int64{"conflict": 4_000_000},
			AttemptCPUNs:    20_000_000,
			Reexecutions:    1,
			RevokedOutputs:  1,
			Witnesses:       map[string]uint64{"write-write": 2},
		}},
		Heatmap: []profiler.HeatEntry{{Node: "agg", State: "sum", Count: 2}},
	}
	r := set.Waste(sum, 10)

	// Per-operator rows: agg carries the aborts and the joined ledger;
	// trace abort totals must match the ledger's conflict count.
	var agg *OperatorWaste
	for i := range r.Operators {
		if r.Operators[i].Node == "agg" {
			agg = &r.Operators[i]
		}
	}
	if agg == nil {
		t.Fatalf("no operator row for agg: %+v", r.Operators)
	}
	if agg.Aborts["conflict"] != 2 || agg.TotalAborts() != 2 {
		t.Errorf("agg aborts = %+v, want 2 conflicts", agg.Aborts)
	}
	if agg.Revokes != 1 {
		t.Errorf("agg revokes = %d, want 1", agg.Revokes)
	}
	if agg.Ledger == nil || agg.Ledger.AbortedAttempts["conflict"] != 2 {
		t.Errorf("agg ledger not joined: %+v", agg.Ledger)
	}
	if uint64(agg.TotalAborts()) != agg.Ledger.TotalAborted() {
		t.Errorf("trace aborts %d != ledger aborts %d", agg.TotalAborts(), agg.Ledger.TotalAborted())
	}

	// Lineage ranking: only the churned lineage appears, and it leads.
	if len(r.Lineages) != 1 {
		t.Fatalf("lineages = %+v, want only hotpath", r.Lineages)
	}
	lw := r.Lineages[0]
	if lw.Trace != "hotpath" || lw.Aborts != 2 || lw.Revokes != 1 {
		t.Errorf("top lineage = %+v, want hotpath with 2 aborts, 1 revoke", lw)
	}
	if lw.SpanNs != 400 {
		t.Errorf("lineage span = %d ns, want 400", lw.SpanNs)
	}

	// Rendered report names the operator, the hot state and the lineage.
	var out bytes.Buffer
	r.WriteReport(&out)
	text := out.String()
	for _, want := range []string{"agg", "sum", "hotpath", "Conflict heatmap", "Top wasted lineages"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
}

// TestWasteWithoutSummary exercises the trace-only path: rows come from
// abort/revoke spans alone and no ledger columns render.
func TestWasteWithoutSummary(t *testing.T) {
	set := wasteTrace(t)
	r := set.Waste(nil, 0)
	if len(r.Operators) != 1 || r.Operators[0].Node != "agg" {
		t.Fatalf("operators = %+v, want only agg (calm lineage has no waste)", r.Operators)
	}
	var out bytes.Buffer
	r.WriteReport(&out)
	if strings.Contains(out.String(), "wasted-cpu-ms") {
		t.Error("trace-only report must not render ledger columns")
	}
}

// TestReadSummary reads back a saved /debug/speculation body.
func TestReadSummary(t *testing.T) {
	sum := &profiler.Summary{Nodes: []profiler.NodeWaste{{
		Node:            "agg",
		AbortedAttempts: map[string]uint64{"conflict": 3},
	}}}
	path := filepath.Join(t.TempDir(), "waste.json")
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || !slices.ContainsFunc(got.Nodes, func(n profiler.NodeWaste) bool {
		return n.Node == "agg" && n.AbortedAttempts["conflict"] == 3
	}) {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
}
