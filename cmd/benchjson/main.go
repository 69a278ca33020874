// Command benchjson gates a report JSON read from stdin — the campaign
// runner's campaign-out/bench.json — and writes it out again
// (CAMPAIGN_<name>.json): -require fails the run when a column is absent
// from every row, -prev when a row regressed against an earlier report.
//
// The schema, column probes and regression rules live in
// internal/benchfmt, shared with internal/campaign.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"streammine/internal/benchfmt"
)

func main() {
	out := flag.String("out", "", "output JSON path (default stdout)")
	require := flag.String("require", "", "comma-separated column names that must appear in at least one row of the report (e.g. recovery_ms,completeness_pct); exit non-zero when a requested column is absent instead of silently emitting blanks")
	prev := flag.String("prev", "", "previous report JSON to compare against: exit non-zero when a benchmark's events_per_sec drops more than 20%, its waste_cpu_pct or recovery_ms more than doubles, or its completeness_pct falls by over half a point")
	flag.Parse()

	var rep benchfmt.Report
	data, err := io.ReadAll(os.Stdin)
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: read:", err)
		os.Exit(1)
	}
	if err := benchfmt.CheckRequired(rep, *require); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *prev != "" {
		if err := benchfmt.CheckRegression(*prev, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}

	if err := benchfmt.WriteReport(rep, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *out != "" {
		fmt.Printf("benchjson: %d rows -> %s\n", len(rep.Benchmarks), *out)
	}
}
