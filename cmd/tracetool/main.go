// Command tracetool merges the per-process JSONL lifecycle traces written
// by streammine's -trace flag, prints a per-phase latency breakdown with
// the critical path of the slowest event, validates trace invariants, and
// optionally exports Chrome trace-event JSON for Perfetto
// (docs/OBSERVABILITY.md walks through the workflow).
//
// Usage:
//
//	tracetool run.jsonl                          # summary table
//	tracetool w1.jsonl w2.jsonl coord.jsonl      # merged multi-process view
//	tracetool -chrome trace.json w*.jsonl        # + Perfetto export
//	tracetool -validate w*.jsonl                 # exit 1 on invariant violations
//	tracetool waste w*.jsonl                     # per-operator waste + top lineages
//	tracetool waste -summary waste.json w*.jsonl # joined with /debug/speculation
//	tracetool top -addr 127.0.0.1:8090           # live /debug/health view
//	tracetool trail w*.jsonl                     # process-level crash trail
//	tracetool recovery w*.jsonl coord.jsonl      # recovery anatomy waterfall
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"streammine/internal/profiler"
	"streammine/internal/tracetool"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		os.Exit(1)
	}
}

func run() error {
	if len(os.Args) > 1 && os.Args[1] == "waste" {
		return runWaste(os.Args[2:])
	}
	if len(os.Args) > 1 && os.Args[1] == "top" {
		return runTop(os.Args[2:])
	}
	if len(os.Args) > 1 && (os.Args[1] == "trail" || os.Args[1] == "recovery") {
		return runTrail(os.Args[1], os.Args[2:])
	}
	chromePath := flag.String("chrome", "", "write Chrome trace-event JSON (Perfetto) to this file")
	validate := flag.Bool("validate", false, "check trace invariants; non-zero exit on violations")
	quiet := flag.Bool("q", false, "suppress the summary table")
	flag.Parse()
	if flag.NArg() == 0 {
		return fmt.Errorf("usage: tracetool [-chrome out.json] [-validate] trace.jsonl...")
	}

	set, err := load(flag.Args())
	if err != nil {
		return err
	}
	if !*quiet {
		set.Analyze().WriteSummary(os.Stdout)
	}
	if *chromePath != "" {
		f, err := os.Create(*chromePath)
		if err != nil {
			return err
		}
		if err := set.WriteChrome(f); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("chrome trace: %s (open in ui.perfetto.dev)\n", *chromePath)
	}
	if *validate {
		if errs := set.Validate(); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintln(os.Stderr, "tracetool: invariant violation:", e)
			}
			return fmt.Errorf("%d invariant violation(s)", len(errs))
		}
		fmt.Println("trace invariants hold")
	}
	return nil
}

// load merges trace files, noting on stderr how many ended in a torn
// line.
func load(paths []string) (*tracetool.Set, error) {
	set, err := tracetool.Load(paths...)
	if err == nil && set.TornTails > 0 {
		fmt.Fprintf(os.Stderr, "tracetool: %d input(s) end in a torn line (crash tear); intact prefixes merged\n", set.TornTails)
	}
	return set, err
}

// runWaste implements the "waste" subcommand: per-operator waste
// breakdowns and the top wasted lineages from the merged trace, joined
// with a saved /debug/speculation summary when given.
func runWaste(args []string) error {
	fs := flag.NewFlagSet("waste", flag.ContinueOnError)
	summaryPath := fs.String("summary", "", "join a saved /debug/speculation JSON body")
	top := fs.Int("top", 10, "how many wasted lineages to list")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of tables")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: tracetool waste [-summary waste.json] [-top N] [-json] trace.jsonl...")
	}
	set, err := load(fs.Args())
	if err != nil {
		return err
	}
	var sum *profiler.Summary
	if *summaryPath != "" {
		if sum, err = tracetool.ReadSummary(*summaryPath); err != nil {
			return err
		}
	}
	report := set.Waste(sum, *top)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	report.WriteReport(os.Stdout)
	return nil
}

// runTop implements the "top" subcommand: a live, periodically refreshed
// rendering of a coordinator's /debug/health — SLO budget attribution,
// backpressure root-cause chains and straggler flags.
func runTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8090", "coordinator debug address serving /debug/health")
	interval := fs.Duration("interval", time.Second, "refresh period")
	once := fs.Bool("once", false, "render a single frame and exit (no screen clearing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	return tracetool.RunTop(os.Stdout, *addr, *interval, *once)
}

// runTrail implements the two subcommands that read the process-level
// records of one or more trace files on one merged timeline, the last
// moments of a crashed process included: "trail" lists them — epochs,
// lifecycle, recovery and chaos — and "recovery" folds the recovery
// records into per-incident phase waterfalls with dominant-phase
// attribution.
func runTrail(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: tracetool %s trace.jsonl...", cmd)
	}
	set, err := load(fs.Args())
	if err != nil {
		return err
	}
	if cmd == "recovery" {
		set.WriteRecovery(os.Stdout)
	} else {
		set.WriteTrail(os.Stdout)
	}
	return nil
}
