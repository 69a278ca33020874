// Package streammine_bench regenerates every figure of the paper's
// evaluation as a Go benchmark (one per figure, scaled-down parameters so
// `go test -bench=.` completes in minutes) plus engine micro-benchmarks.
//
// The benchmarks report the figure's headline quantities as custom
// metrics: latencies in ms, throughput in events/second, speed-ups and
// abort rates. EXPERIMENTS.md records a full-scale run.
package streammine_bench

import (
	"testing"
	"time"

	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/experiments"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
)

var quick = experiments.Config{Quick: true}

// BenchmarkFig2_LoggingConfigurations reports the Figure 2 bars: two
// components, speculative vs non-speculative mean latency per logging
// configuration.
func BenchmarkFig2_LoggingConfigurations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results, err := experiments.RunFig2(quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			name := sanitize(r.Config.Name)
			b.ReportMetric(float64(r.NonSpec.Microseconds())/1000, name+"_nonspec_ms")
			b.ReportMetric(float64(r.Speculative.Microseconds())/1000, name+"_spec_ms")
		}
	}
}

// BenchmarkFig3_LatencyVsOperators reports the Figure 3 curves: latency
// versus pipeline length for the 2- and 7-operator endpoints.
func BenchmarkFig3_LatencyVsOperators(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results, err := experiments.RunFig3(quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Operators != 2 && r.Operators != 7 {
				continue
			}
			prefix := sanitize(time.Duration(r.LogLatency).String()) + "_" + itoa(r.Operators) + "ops"
			b.ReportMetric(float64(r.NonSpec.Microseconds())/1000, prefix+"_nonspec_ms")
			b.ReportMetric(float64(r.Speculative.Microseconds())/1000, prefix+"_spec_ms")
		}
	}
}

// BenchmarkFig4_BurstBacklog reports the Figure 4 peaks: worst per-slice
// latency of the sequential and the 2-thread runs across the burst.
func BenchmarkFig4_BurstBacklog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results, err := experiments.RunFig4(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(peakMs(results[0].Buckets), "sequential_peak_ms")
		b.ReportMetric(peakMs(results[1].Buckets), "parallel2_peak_ms")
	}
}

// peakMs returns the largest bucketed latency, skipping empty (NaN) slices.
func peakMs(buckets []float64) float64 {
	p := 0.0
	for _, v := range buckets {
		if v > p {
			p = v
		}
	}
	return p
}

// BenchmarkFig5_SpeedupVsStateSize reports the Figure 5 endpoints: 8-
// thread speed-up and abort rate with one state field and with many.
func BenchmarkFig5_SpeedupVsStateSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results, err := experiments.RunFig5(quick)
		if err != nil {
			b.Fatal(err)
		}
		first, last := results[0], results[len(results)-1]
		b.ReportMetric(first.SpeedUp, "k1_speedup")
		b.ReportMetric(first.AbortRate, "k1_abort_pct")
		b.ReportMetric(last.SpeedUp, "k64_speedup")
		b.ReportMetric(last.AbortRate, "k64_abort_pct")
	}
}

// BenchmarkFig6_LatencyResponse and BenchmarkFig7_ThroughputResponse share
// one run of the union+sketch pipeline across input rates.
func BenchmarkFig6_LatencyResponse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, points, err := experiments.RunFig6(quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.BothLog {
				continue // report the (a) panel; (b) runs in Fig7's pass
			}
			name := sanitize(p.Mode) + "_" + itoa(p.InputRate)
			b.ReportMetric(float64(p.MeanLat.Microseconds())/1000, name+"_ms")
		}
	}
}

// BenchmarkFig7_ThroughputResponse reports finalized events/second.
func BenchmarkFig7_ThroughputResponse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, _, points, err := experiments.RunFig6(quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.BothLog {
				continue
			}
			name := sanitize(p.Mode) + "_" + itoa(p.InputRate)
			b.ReportMetric(p.OutputRate, name+"_evps")
		}
	}
}

// BenchmarkFig8_STMAccessOverhead reports the Figure 8 endpoints: the
// expensive task's direct/speculative/re-executed times at 1000 accesses.
func BenchmarkFig8_STMAccessOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results, err := experiments.RunFig8(quick)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Accesses != 1000 {
				continue
			}
			b.ReportMetric(float64(r.Direct.Nanoseconds())/1000, r.Task+"_direct_us")
			b.ReportMetric(float64(r.FirstExec.Nanoseconds())/1000, r.Task+"_spec_us")
			b.ReportMetric(float64(r.Reexec.Nanoseconds())/1000, r.Task+"_reexec_us")
		}
	}
}

// BenchmarkExternalization reports the §4 closing scenario: speculative
// vs finalized visibility latency.
func BenchmarkExternalization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.RunExternalization(quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MeanSpeculative.Nanoseconds())/1000, "speculative_us")
		b.ReportMetric(float64(res.MeanFinal.Nanoseconds())/1000, "final_us")
	}
}

// BenchmarkRecovery reports the §2.2 recovery experiment: the re-executed
// task count and duplicate statistics for a crash mid-stream.
func BenchmarkRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.RunRecovery(quick)
		if err != nil {
			b.Fatal(err)
		}
		if res.ContentMismatches != 0 {
			b.Fatalf("precise recovery violated: %d mismatches", res.ContentMismatches)
		}
		b.ReportMetric(float64(res.DuplicatesObserved), "duplicates")
		b.ReportMetric(float64(res.ReexecutedTasks), "reexecuted")
	}
}

// BenchmarkEngineEventThroughput measures raw engine throughput on a
// 3-operator stateless pipeline without simulated costs (events/op).
func BenchmarkEngineEventThroughput(b *testing.B) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	a := g.AddNode(graph.Node{Name: "a", Op: &operator.Passthrough{}, Speculative: true})
	f := g.AddNode(graph.Node{
		Name:        "f",
		Op:          &operator.Filter{Pred: func(e event.Event) bool { return e.Key%2 == 0 }},
		Speculative: true,
	})
	g.Connect(src, 0, a, 0)
	g.Connect(a, 0, f, 0)
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	defer pool.Close()
	eng, err := core.New(g, core.Options{Pool: pool, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Stop()
	handle, err := eng.Source(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := handle.Emit(uint64(i), nil); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			eng.Drain()
		}
	}
	eng.Drain()
}

// BenchmarkEngineStatefulCommit measures the full speculative lifecycle
// (dispatch, execute, commit, finalize) of a stateful operator per event.
func BenchmarkEngineStatefulCommit(b *testing.B) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	c := g.AddNode(graph.Node{
		Name:        "cls",
		Op:          &operator.Classifier{Classes: 64},
		Traits:      operator.ClassifierTraits(64),
		Speculative: true,
	})
	g.Connect(src, 0, c, 0)
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	defer pool.Close()
	eng, err := core.New(g, core.Options{Pool: pool, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Stop()
	handle, err := eng.Source(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := handle.Emit(uint64(i), nil); err != nil {
			b.Fatal(err)
		}
		if i%1024 == 1023 {
			eng.Drain()
		}
	}
	eng.Drain()
}

// itoa avoids strconv just for metric names.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// sanitize turns a mode name into a metric-safe token.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' || c == '-' {
			c = '_'
		}
		out = append(out, c)
	}
	return string(out)
}
