package experiments

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

var quick = Config{Quick: true}

// TestFig2Shape: speculation must beat the non-speculative baseline in
// every logging configuration, most clearly in the shared-single-disk
// one (the paper reports roughly a halving).
func TestFig2Shape(t *testing.T) {
	table, results, err := RunFig2(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("configs = %d, want 5", len(results))
	}
	for _, r := range results {
		if r.Speculative >= r.NonSpec {
			t.Errorf("%s: spec %v >= non-spec %v", r.Config.Name, r.Speculative, r.NonSpec)
		}
	}
	// Sim 5 must be faster than Sim 10 on the non-speculative side, where
	// the write latency is paid twice. (The speculative side pays it once,
	// so at quick-mode scales the difference drowns in timer granularity.)
	sim10, sim5 := results[3], results[4]
	if sim5.NonSpec >= sim10.NonSpec {
		t.Errorf("Sim5 non-spec not faster than Sim10: %+v vs %+v", sim5, sim10)
	}
	if !strings.Contains(table.String(), "Sim 10") {
		t.Error("table missing Sim 10 row")
	}
}

// TestFig3Shape: non-speculative latency grows roughly linearly with the
// operator count; speculative latency stays nearly flat (the headline
// claim).
func TestFig3Shape(t *testing.T) {
	_, results, err := RunFig3(quick)
	if err != nil {
		t.Fatal(err)
	}
	byLat := make(map[time.Duration][]Fig3Result)
	for _, r := range results {
		byLat[r.LogLatency] = append(byLat[r.LogLatency], r)
	}
	for d, series := range byLat {
		first, last := series[0], series[len(series)-1]
		ratio := float64(last.Operators) / float64(first.Operators)
		nonspecGrowth := float64(last.NonSpec) / float64(first.NonSpec)
		if nonspecGrowth < ratio*0.6 {
			t.Errorf("log %v: non-spec grew only %.2fx over %.1fx more operators", d, nonspecGrowth, ratio)
		}
		// Flatness in absolute terms: adding operators must cost the
		// speculative pipeline less than half of what it costs the
		// non-speculative one (it pays per-hop processing, not per-hop
		// disk writes). A pure ratio test is too noisy at quick scales.
		specDelta := last.Speculative - first.Speculative
		nonspecDelta := last.NonSpec - first.NonSpec
		if specDelta*2 >= nonspecDelta {
			t.Errorf("log %v: speculative latency grew %v over the chain vs non-spec %v — not flat",
				d, specDelta, nonspecDelta)
		}
		// At the longest chain, speculation must win by a wide margin.
		if last.Speculative*2 >= last.NonSpec {
			t.Errorf("log %v: at %d ops spec %v vs non-spec %v — less than 2x win",
				d, last.Operators, last.Speculative, last.NonSpec)
		}
	}
}

// TestFig4Shape: the sequential run's peak latency during the burst far
// exceeds the 2-thread run's peak, and the flow-bounded mode keeps the
// processor's peak data-lane occupancy within its configured capacity.
// peak returns the largest bucketed latency, skipping empty (NaN) slices.
func peak(buckets []float64) float64 {
	p := 0.0
	for _, v := range buckets {
		if v > p {
			p = v
		}
	}
	return p
}

func TestFig4Shape(t *testing.T) {
	_, results, err := RunFig4(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("modes = %d", len(results))
	}
	seq, par, bounded := results[0], results[1], results[2]
	if peak(seq.Buckets) < peak(par.Buckets)*2 {
		t.Errorf("sequential peak %.2fms not >> parallel peak %.2fms",
			peak(seq.Buckets), peak(par.Buckets))
	}
	if bounded.DataCap != 32 {
		t.Fatalf("bounded mode data cap = %d, want 32", bounded.DataCap)
	}
	if bounded.DataHighWater > bounded.DataCap {
		t.Errorf("peak occupancy %d exceeds cap %d",
			bounded.DataHighWater, bounded.DataCap)
	}
	if seq.DataCap != 0 || par.DataCap != 0 {
		t.Errorf("unbounded modes report caps %d/%d", seq.DataCap, par.DataCap)
	}
}

// TestFig5Shape: no speed-up (and a high abort rate) with one state field;
// clear speed-up and low abort rate with many fields.
func TestFig5Shape(t *testing.T) {
	_, results, err := RunFig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	first := results[0]
	last := results[len(results)-1]
	if first.StateSize != 1 {
		t.Fatalf("first phase state size = %d", first.StateSize)
	}
	if first.SpeedUp > 1.6 {
		t.Errorf("one field: speed-up %.2f — should be ≈1 (no parallelism available)", first.SpeedUp)
	}
	if last.SpeedUp < 1.6 {
		t.Errorf("%d fields: speed-up %.2f — parallelism not exploited", last.StateSize, last.SpeedUp)
	}
	if first.AbortRate <= last.AbortRate {
		t.Errorf("abort rate should fall with state size: %0.1f%% (k=1) vs %0.1f%% (k=%d)",
			first.AbortRate, last.AbortRate, last.StateSize)
	}
}

// TestFig67Shape: below saturation speculative latency beats the
// non-speculative one (logging hidden), and with 6 threads the saturated
// throughput does not collapse below the 1-thread one. It measures only
// the four points it asserts, at RunFig6's quick scale.
func TestFig67Shape(t *testing.T) {
	sc := fig67ScaleFor(quick)
	lowRate, top := sc.rates[0], sc.rates[len(sc.rates)-1]
	point := func(name string, bothLog bool, rate int) Fig67Point {
		t.Helper()
		for _, m := range fig67Modes() {
			if m.Name == name {
				p, err := runFig67Point(m, bothLog, rate, sc)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
		}
		t.Fatalf("no mode %q", name)
		return Fig67Point{}
	}
	// (b) both log: speculation hides the second log write. Compare the
	// 2-thread speculative configuration, which absorbs the queueing noise
	// that makes single-thread runs wobble near their capacity.
	ns := point("non-spec", true, lowRate)
	sp := point("spec 2 threads", true, lowRate)
	if sp.MeanLat >= ns.MeanLat {
		t.Errorf("at %d ev/s (both log): spec latency %v >= non-spec %v", lowRate, sp.MeanLat, ns.MeanLat)
	}
	// Saturation: the 6-thread configuration must not collapse below the
	// 1-thread one at the top rate. (The *scaling factor* itself is
	// asserted deterministically by the closed-loop Fig. 5 test; this
	// open-loop point is too scheduler-sensitive on a 1-core host for a
	// strict threshold.)
	one := point("spec 1 thread", false, top)
	six := point("spec 6 threads", false, top)
	if six.OutputRate < one.OutputRate*0.8 {
		t.Errorf("at %d ev/s: 6 threads %.0f ev/s vs 1 thread %.0f ev/s — collapsed",
			top, six.OutputRate, one.OutputRate)
	}
	t.Logf("saturated throughput: 1 thread %.0f ev/s, 6 threads %.0f ev/s", one.OutputRate, six.OutputRate)
}

// TestFig8Shape: per-access overhead is bounded, and re-execution costs
// about the same as the first execution (the paper's rollback-is-cheap
// claim).
func TestFig8Shape(t *testing.T) {
	_, results, err := RunFig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.FirstExec < r.Direct {
			continue // noise at tiny task sizes
		}
		// Re-execution within 3x of first execution (generous for noise;
		// the paper reports ≈1x), with an absolute millisecond of slack so
		// one scheduler hiccup on an instrumented run cannot fail a
		// sub-millisecond measurement.
		limit := r.FirstExec * 3
		if slack := r.FirstExec + time.Millisecond; slack > limit {
			limit = slack
		}
		if r.Reexec > limit {
			t.Errorf("%s accesses=%d: re-exec %v vs first %v", r.Task, r.Accesses, r.Reexec, r.FirstExec)
		}
	}
	// Overhead grows with access count for the cheap task: T2 with 1000
	// accesses must cost clearly more than with 1 access under the STM.
	var t2one, t2k time.Duration
	for _, r := range results {
		if r.Task == "T2" && r.Accesses == 1 {
			t2one = r.FirstExec
		}
		if r.Task == "T2" && r.Accesses == 1000 {
			t2k = r.FirstExec
		}
	}
	if t2k <= t2one {
		t.Errorf("T2: 1000 accesses (%v) not slower than 1 access (%v)", t2k, t2one)
	}
}

// TestMedianOfReturnsError: a failing repetition fails the measurement
// instead of being left out of the median.
func TestMedianOfReturnsError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	_, err := medianOf(5, func() error {
		if calls++; calls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("medianOf err = %v, want %v", err, boom)
	}
}

// TestDocumentedFigsExist: every "-fig X" the documentation shows names a
// runner, so a documented command cannot exit with "unknown experiment".
// The documentation is docs/ and every README.md, DESIGN.md,
// EXPERIMENTS.md and SKILL.md in the tree.
func TestDocumentedFigsExist(t *testing.T) {
	var ids []string
	for _, r := range Runners() {
		ids = append(ids, r.ID)
	}
	figArg := regexp.MustCompile(`-fig[ =]+([^\s` + "`" + `;,)|]+)`)
	docName := map[string]bool{"README.md": true, "DESIGN.md": true, "EXPERIMENTS.md": true, "SKILL.md": true}
	root, seen := filepath.Join("..", ".."), 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(root, path)
		if err == nil && d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if err != nil || d.IsDir() || !docName[d.Name()] && (filepath.Dir(rel) != "docs" || filepath.Ext(rel) != ".md") {
			return err
		}
		data, err := os.ReadFile(path)
		for _, m := range figArg.FindAllStringSubmatch(string(data), -1) {
			seen++
			if !slices.Contains(ids, m[1]) {
				t.Errorf("%s: documented `-fig %s` names no runner (have %v)", rel, m[1], ids)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("no -fig command found in the documentation")
	}
}

// TestTableRendering covers the formatter.
func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Header: []string{"a", "bee"}, Rows: [][]string{{"1", "2"}, {"333", "4"}}}
	s := tbl.String()
	for _, want := range []string{"demo", "bee", "333"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

// TestHelpers covers the small formatting helpers.
func TestHelpers(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != "1.50" {
		t.Errorf("ms = %q", got)
	}
	if got := us(1500 * time.Nanosecond); got != "1.5" {
		t.Errorf("us = %q", got)
	}
}
