// Command bench is the repository's benchmark: five workloads over the
// engine's public API, every output checked against a single-threaded
// reference, end-to-end metrics from an untraced run and per-layer
// metrics from a traced one. BENCHMARK.json at the repository root names
// the workloads and metrics; README.md in this directory explains them.
//
//	go run ./bench                          # whole suite, both passes
//	go run ./bench -workload pipe2-sat      # one workload, untraced
//	go run ./bench -workload pipe2-sat -trace 1 -spans /tmp/spans.json
//	go run ./bench -aa                      # suite twice, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	spans    string
	jsonOut  string
	baseline string
	aa       bool
}

func run() error {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and end with the driver's JSON line")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated key")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = untraced run, end-to-end metrics; 1 = traced pass, per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "traced pass: write the spans to this file as Chrome trace-event JSON")
	flag.StringVar(&o.jsonOut, "json", "", "write all results to this file")
	flag.StringVar(&o.baseline, "baseline", "", "compare the untraced results against this earlier -json file")
	flag.BoolVar(&o.aa, "aa", false, "run the untraced suite twice, the second time in reverse order, and compare")
	flag.Parse()
	if flag.NArg() > 0 {
		return fmt.Errorf("bench: unexpected argument %q", flag.Arg(0))
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = float64(sp.RunSeconds)
	}
	// Generator and system share the process; more threads than the
	// reference box has would measure a different machine.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	fmt.Printf("bench: GOMAXPROCS=%d nproc=%d %s %s/%s, %.3g s measured per run, seed %d\n",
		procs, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH, o.seconds, o.seed)

	switch {
	case o.workload != "":
		return driverRun(sp, o)
	case o.aa:
		return aaRun(sp, o)
	default:
		return suiteRun(sp, o, procs)
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// untracedCfg is the run that produces the end-to-end metrics.
func untracedCfg(o options) runCfg {
	return runCfg{
		seed: o.seed, warm: min(2*time.Second, seconds(o.seconds/4)), measure: seconds(o.seconds),
		setups: 333, stall: time.Second, drain: 10 * time.Second, quiet: time.Second,
	}
}

// tracedCfg is the traced pass, whoever asks for it: half the measured
// time for the traced workload, three tenths for each reference sub-run,
// a tenth for each probe (5 s, 3 s and 1 s at the default 10 s).
func tracedCfg(o options) runCfg {
	cfg := untracedCfg(o)
	cfg.traced = true
	cfg.setups = 1
	cfg.warm = min(time.Second, cfg.warm)
	cfg.measure = seconds(o.seconds * 0.5)
	cfg.sub = seconds(o.seconds * 0.3)
	cfg.probe = seconds(o.seconds * 0.1)
	return cfg
}

func find(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// driverRun is one run of one workload, ending with the driver's line.
func driverRun(sp *spec, o options) error {
	w, err := find(o.workload)
	if err != nil {
		return err
	}
	cfg := untracedCfg(o)
	if o.trace == 1 {
		cfg = tracedCfg(o)
		cfg.spans = o.spans
	}
	r, err := w.run(cfg)
	if err != nil {
		return err
	}
	if cfg.traced {
		if err := runProbes(r, cfg.probe); err != nil {
			return err
		}
	}
	printResult(os.Stdout, sp, r)
	if o.jsonOut != "" {
		if err := writeSuite(o.jsonOut, o, runtime.GOMAXPROCS(0), []*result{r}); err != nil {
			return err
		}
	}
	line, err := driverJSON(sp, r)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// untracedSuite runs every workload once, in the given order.
func untracedSuite(sp *spec, o options, order []workload) ([]*result, error) {
	var out []*result
	for _, w := range order {
		runtime.GC() // the previous workload's garbage is not this one's heap
		r, err := w.run(untracedCfg(o))
		if err != nil {
			return out, fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(os.Stdout, sp, r)
		out = append(out, r)
	}
	return out, nil
}

// suiteRun is the full benchmark: every workload untraced, then the
// traced pass of each, then the probes.
func suiteRun(sp *spec, o options, procs int) error {
	results, err := untracedSuite(sp, o, workloads)
	if err != nil {
		return err
	}
	traced := tracedCfg(o)
	for _, w := range workloads {
		cfg := traced
		if o.spans != "" {
			cfg.spans = fmt.Sprintf("%s.%s.json", o.spans, w.name)
		}
		runtime.GC()
		r, err := w.run(cfg)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", w.name, err)
		}
		printResult(os.Stdout, sp, r)
		results = append(results, r)
	}
	probes := &result{Workload: "probes", Traced: true, Metrics: map[string]value{}}
	if err := runProbes(probes, traced.probe); err != nil {
		return err
	}
	printResult(os.Stdout, sp, probes)
	results = append(results, probes)
	if o.jsonOut != "" {
		if err := writeSuite(o.jsonOut, o, procs, results); err != nil {
			return err
		}
	}
	if o.baseline == "" {
		return nil
	}
	data, err := os.ReadFile(o.baseline)
	if err != nil {
		return err
	}
	var base suiteFile
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parse %s: %w", o.baseline, err)
	}
	cs, err := compare(sp, &base, &suiteFile{GOMAXPROCS: procs, Results: results}, false)
	if err != nil {
		return err
	}
	if !printComparison(os.Stdout, cs) {
		return fmt.Errorf("bench: worse than %s by more than the bound", o.baseline)
	}
	return nil
}

// aaRun measures the benchmark against itself: two untraced suites of the
// same code, the second in reverse order, must agree within the bounds.
func aaRun(sp *spec, o options) error {
	first, err := untracedSuite(sp, o, workloads)
	if err != nil {
		return err
	}
	reversed := slices.Clone(workloads)
	slices.Reverse(reversed)
	second, err := untracedSuite(sp, o, reversed)
	if err != nil {
		return err
	}
	procs := runtime.GOMAXPROCS(0)
	cs, err := compare(sp, &suiteFile{GOMAXPROCS: procs, Results: first}, &suiteFile{GOMAXPROCS: procs, Results: second}, true)
	if err != nil {
		return err
	}
	if !printComparison(os.Stdout, cs) {
		return fmt.Errorf("bench: A/A runs differ by more than a bound")
	}
	fmt.Println("A/A: every metric within its bound")
	return nil
}

func writeSuite(path string, o options, procs int, results []*result) error {
	data, err := json.MarshalIndent(suiteFile{
		GOMAXPROCS: procs, NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(), Seconds: o.seconds, Results: results,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
