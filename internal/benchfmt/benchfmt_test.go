package benchfmt

import (
	"path/filepath"
	"strings"
	"testing"
)

// sample is a report with two campaign cells.
var sample = Report{Benchmarks: []Result{
	{Pkg: "campaign/smoke", Name: "paper/sigkill/nospec", Iterations: 1, LatencyP50Us: 420.5, LatencyP99Us: 990.1},
	{Pkg: "campaign/smoke", Name: "paper/sigkill/spec", Iterations: 1, RecoveryMs: 840, CompletenessPct: 99.7},
}}

func TestCheckRequired(t *testing.T) {
	rep := sample
	if err := CheckRequired(rep, "recovery_ms,completeness_pct,latency_p99_us"); err != nil {
		t.Fatalf("required columns present but check failed: %v", err)
	}
	if err := CheckRequired(rep, "replay_ms"); err == nil {
		t.Fatal("absent column passed -require")
	}
	if err := CheckRequired(rep, "no_such_column"); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestColumnsCoverResultFields(t *testing.T) {
	// Every campaign/bench column that CheckRequired can name must have a
	// probe that actually fires when the field is set.
	r := Result{
		LatencyP50Us: 1, LatencyP99Us: 1, WasteCPUPct: 1,
		RecoveryMs: 1, CompletenessPct: 1,
		RecoveryDetectedMs: 1, DetectMs: 1, RestoreMs: 1, ReplayMs: 1,
		CatchupMs: 1, ReplayEventsPerSec: 1,
	}
	for name, probe := range Columns {
		if !probe(&r) {
			t.Errorf("column %q probe does not detect a populated result", name)
		}
	}
}

func writePrev(t *testing.T, rep Report) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prev.json")
	if err := WriteReport(rep, path, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckRegressionRecovery(t *testing.T) {
	prev := Report{Benchmarks: []Result{
		{Pkg: "campaign/smoke", Name: "paper/sigkill/spec", Iterations: 1, RecoveryMs: 800, CompletenessPct: 100},
	}}
	path := writePrev(t, prev)

	ok := Report{Benchmarks: []Result{
		{Pkg: "campaign/smoke", Name: "paper/sigkill/spec", Iterations: 1, RecoveryMs: 900, CompletenessPct: 99.8},
	}}
	if err := CheckRegression(path, ok); err != nil {
		t.Fatalf("small recovery drift flagged: %v", err)
	}

	slow := Report{Benchmarks: []Result{
		{Pkg: "campaign/smoke", Name: "paper/sigkill/spec", Iterations: 1, RecoveryMs: 2200, CompletenessPct: 100},
	}}
	if err := CheckRegression(path, slow); err == nil {
		t.Fatal("recovery_ms more than doubled but gate passed")
	}

	incomplete := Report{Benchmarks: []Result{
		{Pkg: "campaign/smoke", Name: "paper/sigkill/spec", Iterations: 1, RecoveryMs: 800, CompletenessPct: 98.9},
	}}
	if err := CheckRegression(path, incomplete); err == nil {
		t.Fatal("completeness_pct dropped over half a point but gate passed")
	}
}

func TestCheckRegressionNamesColumnAndValues(t *testing.T) {
	prev := Report{Benchmarks: []Result{
		{Pkg: "p", Name: "B1", Iterations: 1, WasteCPUPct: 2, RecoveryMs: 800},
	}}
	path := writePrev(t, prev)
	bad := Report{Benchmarks: []Result{
		{Pkg: "p", Name: "B1", Iterations: 1, WasteCPUPct: 5, RecoveryMs: 2200},
	}}
	err := CheckRegression(path, bad)
	if err == nil {
		t.Fatal("regressions passed the gate")
	}
	msg := err.Error()
	// Every failure must name the offending column and both values, so
	// the CI log is diagnosable without re-running the comparison.
	for _, want := range []string{
		"column waste_cpu_pct", "prev 2.00", "now 5.00",
		"column recovery_ms", "prev 800", "now 2200",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("regression error missing %q:\n%s", want, msg)
		}
	}
}

func TestCheckRegressionThroughputUnchangedRules(t *testing.T) {
	prev := Report{Benchmarks: []Result{
		{Pkg: "p", Name: "B1", Iterations: 1, WasteCPUPct: 2},
	}}
	path := writePrev(t, prev)
	bad := Report{Benchmarks: []Result{
		{Pkg: "p", Name: "B1", Iterations: 1, WasteCPUPct: 5},
	}}
	if err := CheckRegression(path, bad); err == nil {
		t.Fatal("waste_cpu_pct more than doubled but gate passed")
	}
	renamed := Report{Benchmarks: []Result{
		{Pkg: "p", Name: "B2", Iterations: 1, WasteCPUPct: 50},
	}}
	if err := CheckRegression(path, renamed); err != nil {
		t.Fatalf("rename treated as regression: %v", err)
	}
}
