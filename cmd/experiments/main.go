// Command experiments regenerates the paper's evaluation figures (2–8)
// that the repository benchmark (go run ./bench) does not produce.
//
// Usage:
//
//	experiments               # run everything at full scale
//	experiments -quick        # scaled-down run (seconds, for CI)
//	experiments -fig 3        # a single experiment (2,3,4,5,6,8;
//	                          # 6 prints Figs. 6 and 7)
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
	"streammine/internal/experiments"
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
	lg := loadgenFlags()
	flag.Parse()
	autolimit.Apply(func(format string, args ...any) { fmt.Printf(format+"\n", args...) })

	if lg.enabled() {
		return lg.run()
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
