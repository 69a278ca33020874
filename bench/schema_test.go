package main

import (
	"math"
	"regexp"
	"testing"
	"time"
)

// TestSchema runs every workload for about 200 ms, untraced and traced,
// with the checker on, and holds what the program emits against
// BENCHMARK.json in both directions. It asserts names, never values: how
// fast the engine is on the machine running the tests is not its business.
func TestSchema(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, sp.Workloads[i].Name, sp.Workloads[i].Why, w.name, w.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	listed := make(map[string]bool)
	for _, m := range append(append([]specMetric{}, sp.EndToEnd...), sp.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q is not made of letters, digits, _ . -", m.Name)
		}
		if listed[m.Name] {
			t.Errorf("metric %q is listed twice", m.Name)
		}
		listed[m.Name] = true
	}

	quick := runCfg{
		seed: 1, warm: 50 * time.Millisecond, measure: 200 * time.Millisecond, setups: 2,
		stall: 500 * time.Millisecond, drain: 2 * time.Second, quiet: 200 * time.Millisecond,
	}
	traced := quick
	traced.traced, traced.sub, traced.probe = true, 100*time.Millisecond, 2*time.Millisecond

	emitted := make(map[string]bool)
	note := func(r *result) {
		for n, v := range r.Metrics {
			emitted[n] = true
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v", r.Workload, n, v.Value)
			}
		}
	}
	for _, w := range workloads {
		for _, cfg := range []runCfg{quick, traced} {
			r, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s (traced=%v): %v", w.name, cfg.traced, err)
			}
			note(r)
			if r.Attempted < 1 {
				t.Errorf("%s (traced=%v): nothing attempted", w.name, cfg.traced)
			}
			// Failed operations are a result, not a harness error, and this
			// test does not judge the engine; but it does want to hear.
			if r.Failed != 0 {
				t.Logf("%s (traced=%v): %d of %d operations failed: %+v", w.name, cfg.traced, r.Failed, r.Attempted, r.Failures)
			}
			if line, err := driverJSON(sp, r); err != nil {
				t.Errorf("%s (traced=%v): %v", w.name, cfg.traced, err)
			} else if len(line) == 0 {
				t.Errorf("%s (traced=%v): empty driver line", w.name, cfg.traced)
			}
		}
	}
	probes := &result{Workload: "probes", Traced: true, Metrics: map[string]value{}}
	if err := runProbes(probes, traced.probe); err != nil {
		t.Fatal(err)
	}
	note(probes)

	for n := range emitted {
		if !listed[n] {
			t.Errorf("the program emits %q, BENCHMARK.json does not list it", n)
		}
	}
	for n := range listed {
		if !emitted[n] {
			t.Errorf("BENCHMARK.json lists %q, no workload or probe emits it", n)
		}
	}
}
