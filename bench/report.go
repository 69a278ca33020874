package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// spec is BENCHMARK.json, the one list of workload and metric names,
// units, directions and bounds. The program reads it instead of repeating
// it, so the file the driver checks and the figures the program prints
// cannot drift apart.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory or the nearest
// directory above it (go test runs in the package directory, go run at
// the repository root).
func loadSpec() (*spec, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var sp spec
			if err := json.Unmarshal(data, &sp); err != nil {
				return nil, fmt.Errorf("parse %s: %w", filepath.Join(dir, "BENCHMARK.json"), err)
			}
			return &sp, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, errors.New("bench: no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// driverLine is the last line of standard output the driver parses.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverJSON renders a result as the driver's line: every end-to-end
// metric of an untraced run, every per-layer metric of a traced one. A
// per-layer metric the workload does not exercise reads 0; a missing
// end-to-end metric is a harness error.
func driverJSON(sp *spec, r *result) ([]byte, error) {
	list, required := sp.EndToEnd, true
	if r.Traced {
		list, required = sp.PerLayer, false
	}
	line := driverLine{
		Correct:   r.Failed == 0,
		Attempted: r.Attempted,
		Failed:    min(r.Failed, r.Attempted),
		Metrics:   make(map[string]driverValue, len(list)),
	}
	for _, m := range list {
		v, ok := r.Metrics[m.Name]
		if !ok && required {
			return nil, fmt.Errorf("bench: %s did not report %s", r.Workload, m.Name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("bench: %s reported a non-finite %s", r.Workload, m.Name)
		}
		line.Metrics[m.Name] = driverValue{Value: v.Value, Unit: m.Unit}
	}
	return json.Marshal(line)
}

// printResult writes one run for a human: every metric by name with its
// unit and sample count, then what failed.
func printResult(w io.Writer, sp *spec, r *result) {
	pass := "untraced"
	if r.Traced {
		pass = "traced"
	}
	fmt.Fprintf(w, "\n== %s  (%s, seed %d)  attempted=%d failed=%d\n", r.Workload, pass, r.Seed, r.Attempted, r.Failed)
	if r.Invalid != "" {
		fmt.Fprintf(w, "   INVALID: %s\n", r.Invalid)
	}
	printed := make(map[string]bool)
	line := func(name string) {
		v, ok := r.Metrics[name]
		if !ok || printed[name] {
			return
		}
		printed[name] = true
		extra := ""
		if v.Samples > 0 {
			extra = fmt.Sprintf("  n=%d", v.Samples)
		}
		if v.Note != "" {
			extra += "  (" + v.Note + ")"
		}
		digits := 4
		if v.Unit == "s" {
			digits = 7 // set-up times are tens of microseconds
		}
		fmt.Fprintf(w, "   %-40s %16.*f %-5s%s\n", name, digits, v.Value, v.Unit, extra)
	}
	for _, m := range sp.EndToEnd {
		line(m.Name)
	}
	for _, m := range sp.PerLayer {
		line(m.Name)
	}
	var rest []string
	for name := range r.Metrics {
		if !printed[name] {
			rest = append(rest, name)
		}
	}
	slices.Sort(rest)
	for _, name := range rest {
		line(name)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   failed: index=%d key=%d %s\n", f.Index, f.Key, f.Reason)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

// suiteFile is what -json writes and -baseline reads: one whole run of
// the suite with the conditions it ran under.
type suiteFile struct {
	GOMAXPROCS int       `json:"gomaxprocs"`
	NumCPU     int       `json:"nproc"`
	GoVersion  string    `json:"go"`
	Seconds    float64   `json:"seconds"`
	Results    []*result `json:"results"`
}

// comparison is one line of the table two runs are compared in: an
// end-to-end metric of one workload, or something about the workload's two
// runs that fails the comparison whatever the figures say.
type comparison struct {
	workload, metric string
	a, b             float64
	worse            float64 // by what share of a the second run is worse (negative: better)
	bound            float64
	fault            string // set instead of the figures
	miss             bool
}

// compare lines up the untraced results of two suite runs. The second run
// misses where it is worse than the bound allows; in a symmetric comparison
// (A/A: neither run is the reference) also where it is better by more than
// the bound. A gain does not count when operations were lost for it, and
// a figure that is missing, zero or from an invalid run cannot be judged:
// those miss too. It refuses runs made at different GOMAXPROCS: their
// figures describe different machines.
func compare(sp *spec, a, b *suiteFile, symmetric bool) ([]comparison, error) {
	if a.GOMAXPROCS != b.GOMAXPROCS {
		return nil, fmt.Errorf("bench: refusing to compare a run at GOMAXPROCS=%d with one at GOMAXPROCS=%d", a.GOMAXPROCS, b.GOMAXPROCS)
	}
	find := func(f *suiteFile, name string) *result {
		for _, r := range f.Results {
			if r.Workload == name && !r.Traced {
				return r
			}
		}
		return nil
	}
	var out []comparison
	fault := func(workload, metric, format string, args ...any) {
		out = append(out, comparison{workload: workload, metric: metric, fault: fmt.Sprintf(format, args...), miss: true})
	}
	for _, w := range sp.Workloads {
		ra, rb := find(a, w.Name), find(b, w.Name)
		if ra == nil || rb == nil {
			fault(w.Name, "", "not in both runs")
			continue
		}
		for _, r := range []*result{ra, rb} {
			if r.Invalid != "" {
				fault(w.Name, "", "invalid run: %s", r.Invalid)
			}
		}
		if rb.Failed > ra.Failed || symmetric && rb.Failed != ra.Failed {
			fault(w.Name, "failed", "%d operations failed in the first run, %d in the second", ra.Failed, rb.Failed)
		}
		for _, m := range sp.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			if !(va > 0 && vb > 0) || math.IsInf(va, 0) || math.IsInf(vb, 0) {
				fault(w.Name, m.Name, "reported as %v and %v: missing, zero or not finite", va, vb)
				continue
			}
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = -worse
			}
			out = append(out, comparison{workload: w.Name, metric: m.Name, a: va, b: vb, worse: worse, bound: m.Bound,
				miss: worse > m.Bound || symmetric && -worse > m.Bound})
		}
	}
	return out, nil
}

// printComparison prints the table and reports whether every pair stayed
// within its bound.
func printComparison(w io.Writer, cs []comparison) bool {
	ok := true
	fmt.Fprintf(w, "\n%-14s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, c := range cs {
		flag := ""
		if c.miss {
			flag, ok = "  MISS", false
		}
		if c.fault != "" {
			fmt.Fprintf(w, "%-14s %-18s %s%s\n", c.workload, c.metric, c.fault, flag)
			continue
		}
		fmt.Fprintf(w, "%-14s %-18s %14.6g %14.6g %8.1f%% %6.0f%%%s\n", c.workload, c.metric, c.a, c.b, 100*c.worse, 100*c.bound, flag)
	}
	return ok
}
