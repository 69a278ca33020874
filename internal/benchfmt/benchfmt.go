// Package benchfmt defines the machine-readable report schema that
// internal/campaign emits (one row per campaign cell) and cmd/benchjson
// gates: the -require column probes and the -prev regression rules over a
// campaign result file (CAMPAIGN_<name>.json).
package benchfmt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Result is one measurement row: one campaign cell.
type Result struct {
	Pkg        string `json:"pkg"`
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Sink latency quantiles after the fault.
	LatencyP50Us float64 `json:"latency_p50_us,omitempty"`
	LatencyP99Us float64 `json:"latency_p99_us,omitempty"`
	// Speculation waste: the share of CPU spent on aborted attempts.
	WasteCPUPct float64 `json:"waste_cpu_pct,omitempty"`
	// Fault-recovery campaign metrics (docs/CAMPAIGNS.md): time from
	// fault injection until sink throughput was restored, and the
	// fraction of externalized lineages that are reconstructable end to
	// end in the merged trace ("recovery-ms" / "completeness-pct" units).
	RecoveryMs      float64 `json:"recovery_ms,omitempty"`
	CompletenessPct float64 `json:"completeness_pct,omitempty"`
	// Recovery anatomy columns: the black-box recovery window broken
	// down by the instrumented /debug/recovery timeline (detection,
	// restore incl. decision-log scan, replay, catch-up), the replay
	// throughput, and the detection-anchored recovery time
	// ("detect-ms" … "recovery-detected-ms" units).
	DetectMs           float64 `json:"detect_ms,omitempty"`
	RestoreMs          float64 `json:"restore_ms,omitempty"`
	ReplayMs           float64 `json:"replay_ms,omitempty"`
	CatchupMs          float64 `json:"catchup_ms,omitempty"`
	ReplayEventsPerSec float64 `json:"replay_events_per_sec,omitempty"`
	RecoveryDetectedMs float64 `json:"recovery_detected_ms,omitempty"`
}

// Columns maps a -require column name to a probe reporting whether a
// result carries that column. Keep in sync with the JSON field tags
// above.
var Columns = map[string]func(*Result) bool{
	"latency_p50_us":        func(r *Result) bool { return r.LatencyP50Us != 0 },
	"latency_p99_us":        func(r *Result) bool { return r.LatencyP99Us != 0 },
	"waste_cpu_pct":         func(r *Result) bool { return r.WasteCPUPct != 0 },
	"recovery_ms":           func(r *Result) bool { return r.RecoveryMs != 0 },
	"completeness_pct":      func(r *Result) bool { return r.CompletenessPct != 0 },
	"detect_ms":             func(r *Result) bool { return r.DetectMs != 0 },
	"restore_ms":            func(r *Result) bool { return r.RestoreMs != 0 },
	"replay_ms":             func(r *Result) bool { return r.ReplayMs != 0 },
	"catchup_ms":            func(r *Result) bool { return r.CatchupMs != 0 },
	"replay_events_per_sec": func(r *Result) bool { return r.ReplayEventsPerSec != 0 },
	"recovery_detected_ms":  func(r *Result) bool { return r.RecoveryDetectedMs != 0 },
}

// Report is the file-level record.
type Report struct {
	Benchmarks []Result `json:"benchmarks"`
}

// ReadReport loads a Report previously written as JSON.
func ReadReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("parse %s: %w", path, err)
	}
	return rep, nil
}

// WriteReport marshals the report (indented, trailing newline) to path,
// or to w when path is empty.
func WriteReport(rep Report, path string, w io.Writer) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = w.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// CheckRequired verifies every comma-separated column appears in at least
// one result. A typo'd or vanished metric unit used to produce a report
// full of silent blanks; now it fails the run.
func CheckRequired(rep Report, require string) error {
	if require == "" {
		return nil
	}
	for _, col := range strings.Split(require, ",") {
		col = strings.TrimSpace(col)
		if col == "" {
			continue
		}
		probe, ok := Columns[col]
		if !ok {
			return fmt.Errorf("-require: unknown column %q", col)
		}
		found := false
		for i := range rep.Benchmarks {
			if probe(&rep.Benchmarks[i]) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("-require: column %q absent from all %d rows of the report", col, len(rep.Benchmarks))
		}
	}
	return nil
}

// CheckRegression compares the new report against a previous one by
// pkg+name. A row fails the gate when its waste_cpu_pct more than
// doubled, its recovery_ms or
// replay_ms more than doubled (and grew by at least 250 ms, so
// fast-recovery jitter does not trip it), or its completeness_pct fell
// by more than half a point.
// Rows present on only one side are ignored (renames and new coverage are
// not regressions).
func CheckRegression(prevPath string, cur Report) error {
	prev, err := ReadReport(prevPath)
	if err != nil {
		return fmt.Errorf("-prev: %w", err)
	}
	old := make(map[string]Result, len(prev.Benchmarks))
	for _, r := range prev.Benchmarks {
		old[r.Pkg+" "+r.Name] = r
	}
	var bad []string
	// regress records one failed row in the gate's uniform shape: the
	// row, the offending column by name, the previous and current values,
	// and the rule that tripped — so a CI failure is diagnosable from the
	// error alone.
	regress := func(name, column string, prec int, prevV, curV float64, rule string) {
		bad = append(bad, fmt.Sprintf("%s: column %s: prev %.*f, now %.*f (%s)",
			name, column, prec, prevV, prec, curV, rule))
	}
	for _, r := range cur.Benchmarks {
		p, ok := old[r.Pkg+" "+r.Name]
		if !ok {
			continue
		}
		if p.WasteCPUPct > 0 && r.WasteCPUPct > 2*p.WasteCPUPct {
			regress(r.Name, "waste_cpu_pct", 2, p.WasteCPUPct, r.WasteCPUPct, "more than doubled")
		}
		if p.ReplayMs > 0 && r.ReplayMs > 2*p.ReplayMs && r.ReplayMs-p.ReplayMs > 250 {
			regress(r.Name, "replay_ms", 0, p.ReplayMs, r.ReplayMs, "more than doubled and grew >=250ms")
		}
		if p.RecoveryMs > 0 && r.RecoveryMs > 2*p.RecoveryMs && r.RecoveryMs-p.RecoveryMs > 250 {
			regress(r.Name, "recovery_ms", 0, p.RecoveryMs, r.RecoveryMs, "more than doubled and grew >=250ms")
		}
		if p.CompletenessPct > 0 && r.CompletenessPct > 0 && r.CompletenessPct < p.CompletenessPct-0.5 {
			regress(r.Name, "completeness_pct", 2, p.CompletenessPct, r.CompletenessPct, "fell more than 0.5 points")
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("regression vs %s:\n  %s", prevPath, strings.Join(bad, "\n  "))
	}
	return nil
}
