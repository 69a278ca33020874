// Command experiments regenerates the paper's evaluation: every figure
// (2–8), the §4 externalization scenario, the §2.2 recovery experiment,
// and the §5 related-work model table.
//
// Usage:
//
//	experiments               # run everything at full scale
//	experiments -quick        # scaled-down run (seconds, for CI)
//	experiments -fig 3        # a single experiment (2,3,4,5,6,8,
//	                          # external, recovery, related)
//	experiments -list         # list available experiments
//
// It also hosts the ingest load generator (docs/INGEST.md):
//
//	experiments -loadgen -addr HOST:PORT -stream src -rate 5000 -count 100000
package main

import (
	"flag"
	"fmt"
	"os"

	"streammine/internal/autolimit"
	"streammine/internal/debugserver"
	"streammine/internal/experiments"
	"streammine/internal/metrics"
	"streammine/internal/transport"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	quick := flag.Bool("quick", false, "scaled-down parameters (finishes in seconds)")
	fig := flag.String("fig", "", "run a single experiment by id")
	list := flag.Bool("list", false, "list experiments and exit")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address while experiments run")
	lg := loadgenFlags()
	flag.Parse()
	autolimit.Apply(func(format string, args ...any) { fmt.Printf(format+"\n", args...) })

	if lg.enabled() {
		return lg.run()
	}

	if *debugAddr != "" {
		reg := metrics.NewRegistry()
		transport.RegisterMetrics(reg)
		experiments.SetMetricsRegistry(reg)
		srv := debugserver.New(reg, nil)
		bound, err := srv.Start(*debugAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Printf("debug server on http://%s (/metrics /healthz /debug/pprof)\n", bound)
	}

	cfg := experiments.Config{Quick: *quick}
	runners := experiments.Runners()

	if *list {
		for _, r := range runners {
			fmt.Printf("%-10s %s\n", r.ID, r.Desc)
		}
		return nil
	}
	if *fig != "" {
		for _, r := range runners {
			if r.ID == *fig {
				tables, err := r.Run(cfg)
				if err != nil {
					return err
				}
				for _, t := range tables {
					fmt.Println(t.String())
				}
				return nil
			}
		}
		return fmt.Errorf("unknown experiment %q (use -list)", *fig)
	}
	return experiments.RunAll(cfg, os.Stdout)
}
