package main

import "testing"

// compare must not let a run pass on its figures when operations were
// lost for them, when the run was invalid, or when a figure is absent.
func TestCompare(t *testing.T) {
	sp := &spec{
		Workloads: []specLoad{{Name: "w"}},
		EndToEnd: []specMetric{
			{Name: "events_per_s", Better: "higher", Bound: 0.25},
			{Name: "setup_s", Better: "lower", Bound: 0.25},
		},
	}
	run := func(rate, setup float64, failed int64, invalid string) *suiteFile {
		return &suiteFile{GOMAXPROCS: 2, Results: []*result{{Workload: "w", Attempted: 100, Failed: failed, Invalid: invalid,
			Metrics: map[string]value{"events_per_s": {Value: rate}, "setup_s": {Value: setup}}}}}
	}
	base := run(1000, 0.001, 0, "")
	cases := []struct {
		name      string
		b         *suiteFile
		symmetric bool
		miss      bool
	}{
		{"same", run(1000, 0.001, 0, ""), false, false},
		{"worse within the bound", run(800, 0.0012, 0, ""), false, false},
		{"slower beyond the bound", run(700, 0.001, 0, ""), false, true},
		{"set-up beyond the bound", run(1000, 0.0013, 0, ""), false, true},
		{"much faster, against a reference", run(2000, 0.001, 0, ""), false, false},
		{"much faster, A/A", run(2000, 0.001, 0, ""), true, true},
		{"set-up beyond the bound, A/A", run(1000, 0.0007, 0, ""), true, true},
		{"faster but lost finals", run(2000, 0.001, 2, ""), false, true},
		{"invalid open-loop run", run(1000, 0.001, 0, "generator ran late"), false, true},
		{"a metric reads zero", run(0, 0.001, 0, ""), false, true},
		{"workload absent", &suiteFile{GOMAXPROCS: 2}, false, true},
	}
	for _, c := range cases {
		cs, err := compare(sp, base, c.b, c.symmetric)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		miss := false
		for _, row := range cs {
			miss = miss || row.miss
		}
		if miss != c.miss {
			t.Errorf("%s: miss=%v, want %v (%+v)", c.name, miss, c.miss, cs)
		}
	}
	if _, err := compare(sp, base, &suiteFile{GOMAXPROCS: 4}, false); err == nil {
		t.Error("runs at different GOMAXPROCS were compared")
	}
	// Fewer failures than the reference is no fault; in A/A any difference is.
	worse := run(1000, 0.001, 3, "")
	if cs, _ := compare(sp, worse, base, false); len(cs) != 2 {
		t.Errorf("fewer failures than the reference reported as a fault: %+v", cs)
	}
	if cs, _ := compare(sp, worse, base, true); len(cs) != 3 {
		t.Errorf("A/A runs with different failure counts were not flagged: %+v", cs)
	}
}
