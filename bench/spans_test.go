package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one nested child", []interval{{120, 150}}, 70},
		{"two disjoint children", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping children count once", []interval{{110, 150}, {130, 170}}, 40},
		{"child nested in a sibling", []interval{{110, 180}, {120, 130}}, 30},
		{"children given out of order", []interval{{150, 170}, {110, 120}}, 70},
		{"child sticking out is clipped", []interval{{50, 120}, {190, 400}}, 70},
		{"child outside the parent", []interval{{10, 50}, {300, 400}}, 100},
		{"children cover everything", []interval{{90, 160}, {160, 210}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestResolveParents(t *testing.T) {
	spans := []span{
		0: {kind: spGenEmit, req: 7, start: 0, end: 5},
		1: {kind: spCoreOpProcess, req: 7, start: 6, end: 9},
		2: {kind: spSinkFinal, req: 7, start: 0, end: 30},
		3: {kind: spCoreRecover, start: 100, end: 200},
		4: {kind: spWalScan, start: 110, end: 150},
		5: {kind: spStorageDiskWrite, start: 120, end: 130},
		6: {kind: spCoreOpProcess, req: 8, start: 6, end: 9}, // its request never finalized
	}
	want := []int32{2, 2, -1, -1, 3, -1, -1}
	got := resolveParents(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): parent %d, want %d", i, spanNames[spans[i].kind], got[i], want[i])
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	spans := []span{{kind: spSinkFinal, req: 7, start: 1000, end: 9000}, {kind: spStorageDiskWrite, start: 2000, end: 3000}}
	if err := writeChromeTrace(path, spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph, Name, ID string
			Ts           float64
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 || doc.TraceEvents[0].Ph != "b" || doc.TraceEvents[1].Ph != "e" ||
		doc.TraceEvents[0].Name != "sink.final" || doc.TraceEvents[0].Ts != 1 || doc.TraceEvents[1].Ts != 9 {
		t.Errorf("unexpected events: %+v", doc.TraceEvents)
	}
}
