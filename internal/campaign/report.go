package campaign

import (
	"fmt"
	"strings"

	"streammine/internal/benchfmt"
)

// BenchReport converts a campaign outcome into the shared benchfmt
// schema, one row per cell, so cmd/benchjson's -require column probes
// and -prev regression gate apply to campaign archives exactly as they
// do to benchmark archives.
func BenchReport(o *Outcome) benchfmt.Report {
	rep := benchfmt.Report{Benchmarks: make([]benchfmt.Result, 0, len(o.Cells))}
	for _, c := range o.Cells {
		rep.Benchmarks = append(rep.Benchmarks, benchfmt.Result{
			Pkg:             "campaign/" + o.Campaign,
			Name:            c.Cell,
			Iterations:      1,
			RecoveryMs:      c.RecoveryMs,
			CompletenessPct: c.CompletenessPct,
			WasteCPUPct:     c.WasteCPUPct,
			LatencyP50Us:    1000 * c.AfterP50Ms,
			LatencyP99Us:    1000 * c.AfterP99Ms,

			RecoveryDetectedMs: c.RecoveryDetectedMs,
			DetectMs:           c.DetectMs,
			RestoreMs:          c.RestoreMs,
			ReplayMs:           c.ReplayMs,
			CatchupMs:          c.CatchupMs,
			ReplayEventsPerSec: c.ReplayEventsPerSec,
		})
	}
	return rep
}

// Markdown renders the human-readable campaign report: a verdict line, a
// summary table, and a per-cell detail section for every failure.
func Markdown(o *Outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Campaign: %s\n\n", o.Campaign)

	passed := 0
	for _, c := range o.Cells {
		if c.Passed() {
			passed++
		}
	}
	fmt.Fprintf(&b, "%d cells — %d passed, %d failed.\n\n", len(o.Cells), passed, len(o.Cells)-passed)

	b.WriteString("| cell | events | dups | recovery ms | complete % | p99 before/during/after ms | waste cpu % | status |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|---|\n")
	for _, c := range o.Cells {
		status := "ok"
		if !c.Passed() {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "| %s | %d | %d | %s | %s | %s / %s / %s | %s | %s |\n",
			c.Cell, c.Events, c.DupPrints,
			num(c.RecoveryMs, 0), num(c.CompletenessPct, 2),
			num(c.BeforeP99Ms, 1), num(c.DuringP99Ms, 1), num(c.AfterP99Ms, 1),
			num(c.WasteCPUPct, 2), status)
	}
	b.WriteString("\n")

	// Per-cell detail for fault cells: who was hit, when, and any failed
	// assertions.
	for _, c := range o.Cells {
		if c.Baseline && c.Passed() {
			continue
		}
		fmt.Fprintf(&b, "## %s\n\n", c.Cell)
		if c.Victim != "" {
			fmt.Fprintf(&b, "- victim: %s\n", c.Victim)
		}
		if c.Trigger != "" {
			fmt.Fprintf(&b, "- trigger: %s\n", c.Trigger)
		}
		if c.RecoveryMs > 0 {
			fmt.Fprintf(&b, "- recovery: %.0f ms\n", c.RecoveryMs)
		}
		if c.RecoveryPhaseSumMs > 0 {
			fmt.Fprintf(&b, "- recovery anatomy: detect %.0f / decide %.0f / restore %.0f / refill %.0f / replay %.0f / catchup %.0f ms (sum %.0f, dominant %s)\n",
				c.DetectMs, c.DecideMs, c.RestoreMs, c.RefillMs, c.ReplayMs, c.CatchupMs,
				c.RecoveryPhaseSumMs, c.RecoveryDominant)
			if c.RecoveryDetectedMs > 0 {
				fmt.Fprintf(&b, "- recovery (detection-anchored): %.0f ms", c.RecoveryDetectedMs)
				if c.ReplayEventsPerSec > 0 {
					fmt.Fprintf(&b, "; replay %.0f events/sec", c.ReplayEventsPerSec)
				}
				b.WriteString("\n")
			}
		}
		fmt.Fprintf(&b, "- p50 before/during/after: %s / %s / %s ms\n",
			num(c.BeforeP50Ms, 1), num(c.DuringP50Ms, 1), num(c.AfterP50Ms, 1))
		if c.ReplayedPrints > 0 {
			fmt.Fprintf(&b, "- replayed prints after crash: %d (post-checkpoint tail re-externalized on the survivor)\n", c.ReplayedPrints)
		}
		if c.WasteAbortedAttempts > 0 {
			fmt.Fprintf(&b, "- speculation waste: %d aborted attempts, %.2f%% of attempt CPU\n",
				c.WasteAbortedAttempts, c.WasteCPUPct)
		}
		if c.HealthStragglerMs > 0 {
			fmt.Fprintf(&b, "- health: straggler %s flagged %.0f ms after injection\n", c.Victim, c.HealthStragglerMs)
		}
		if c.HealthChainMs > 0 {
			fmt.Fprintf(&b, "- health: backpressure chain %.0f ms after injection: %s\n", c.HealthChainMs, c.HealthChain)
		}
		for _, t := range c.Trails {
			fmt.Fprintf(&b, "- trail: [%s](%s)\n", t, t)
		}
		for _, f := range c.Failures {
			fmt.Fprintf(&b, "- **FAIL**: %s\n", f)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// num renders a metric value, or an em dash when it was not measured.
func num(v float64, prec int) string {
	if v == 0 {
		return "—"
	}
	return fmt.Sprintf("%.*f", prec, v)
}
