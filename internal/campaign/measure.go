package campaign

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"streammine/internal/debugserver"
	"streammine/internal/health"
	"streammine/internal/metrics"
	"streammine/internal/procharness"
	"streammine/internal/profiler"
	"streammine/internal/recovery"
	"streammine/internal/tracetool"
)

// recoveryBucket is the resolution of the post-injection throughput
// scan: recovery is declared at the first bucket whose sink rate is
// back to at least half the pre-fault rate.
const recoveryBucket = 250 * time.Millisecond

// recoveryMs derives the recovery time from the wall-anchored sink
// timeline: the pre-fault delivery rate R0 is measured over the (up to)
// two seconds before injection, and recovery is the first post-injection
// quarter-second bucket whose rate reaches R0/2, timed from injection to
// that bucket's first delivery. A fault the pipeline rode out without a
// visible dip therefore scores near zero; a fault that stalled delivery
// scores the stall. Returns 0 when the timeline cannot support the
// measurement (no pre-fault events, or no post-fault recovery bucket and
// no deliveries at all).
func recoveryMs(tl []procharness.SinkEvent, injectAt time.Time) float64 {
	if injectAt.IsZero() || len(tl) == 0 {
		return 0
	}
	var first time.Time
	pre := 0
	for _, e := range tl {
		if e.At.After(injectAt) {
			continue
		}
		if first.IsZero() {
			first = e.At
		}
		pre++
	}
	if pre == 0 {
		return 0
	}
	window := injectAt.Sub(first)
	if window > 2*time.Second {
		window = 2 * time.Second
		pre = 0
		for _, e := range tl {
			if !e.At.After(injectAt) && e.At.After(injectAt.Add(-window)) {
				pre++
			}
		}
	}
	if window <= 0 {
		window = recoveryBucket
	}
	r0 := float64(pre) / window.Seconds()
	need := int(0.5 * r0 * recoveryBucket.Seconds())
	if need < 1 {
		need = 1
	}

	// Scan quarter-second buckets after the injection.
	counts := map[int]int{}
	firstIn := map[int]time.Time{}
	maxB := -1
	for _, e := range tl {
		if !e.At.After(injectAt) {
			continue
		}
		b := int(e.At.Sub(injectAt) / recoveryBucket)
		counts[b]++
		if t, ok := firstIn[b]; !ok || e.At.Before(t) {
			firstIn[b] = e.At
		}
		if b > maxB {
			maxB = b
		}
	}
	for b := 0; b <= maxB; b++ {
		if counts[b] >= need {
			return float64(firstIn[b].Sub(injectAt)) / float64(time.Millisecond)
		}
	}
	if maxB >= 0 {
		// Delivery resumed but never reached half rate (e.g. the run
		// drained its tail slowly): time to the last delivery.
		return float64(firstIn[maxB].Sub(injectAt)) / float64(time.Millisecond)
	}
	return 0
}

// latencySplit is the per-phase first-delivery latency profile: each
// externalized lineage's ingress→externalize wall time, bucketed by
// when it externalized relative to the fault window.
type latencySplit struct {
	BeforeP50Ms float64 `json:"p50_before_ms,omitempty"`
	BeforeP99Ms float64 `json:"p99_before_ms,omitempty"`
	DuringP50Ms float64 `json:"p50_during_ms,omitempty"`
	DuringP99Ms float64 `json:"p99_during_ms,omitempty"`
	AfterP50Ms  float64 `json:"p50_after_ms,omitempty"`
	AfterP99Ms  float64 `json:"p99_after_ms,omitempty"`
}

// latencyFromTraces computes the split from a merged trace. Span
// timestamps are wall-clock nanoseconds (the tracer's clock anchor), so
// they compare directly against the harness's injection wall times.
// faultStart/faultEnd bound the "during" bucket; zero faultStart puts
// everything in "before" (baseline cells).
func latencyFromTraces(set *tracetool.Set, faultStart, faultEnd time.Time) latencySplit {
	var before, during, after []float64
	for _, l := range set.Lineages() {
		var ingress, ext int64
		for _, sp := range l.Spans {
			switch sp.Phase {
			case metrics.PhaseIngress:
				if ingress == 0 || sp.TS < ingress {
					ingress = sp.TS
				}
			case metrics.PhaseExternalize:
				if ext == 0 || sp.TS < ext {
					ext = sp.TS
				}
			}
		}
		if ingress == 0 || ext == 0 || ext < ingress {
			continue
		}
		ms := float64(ext-ingress) / float64(time.Millisecond)
		at := time.Unix(0, ext)
		switch {
		case faultStart.IsZero() || at.Before(faultStart):
			before = append(before, ms)
		case at.Before(faultEnd):
			during = append(during, ms)
		default:
			after = append(after, ms)
		}
	}
	return latencySplit{
		BeforeP50Ms: percentile(before, 50), BeforeP99Ms: percentile(before, 99),
		DuringP50Ms: percentile(during, 50), DuringP99Ms: percentile(during, 99),
		AfterP50Ms: percentile(after, 50), AfterP99Ms: percentile(after, 99),
	}
}

// percentile is the nearest-rank percentile of vs (0 when empty).
func percentile(vs []float64, p int) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := make([]float64, len(vs))
	copy(sorted, vs)
	sort.Float64s(sorted)
	idx := (len(sorted)*p + 99) / 100
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// completeness counts externalized lineages and how many of them are
// reconstructable end to end (the tracetool criterion the e2e suite
// asserts at 99%).
func completeness(set *tracetool.Set) (externalized, complete int) {
	for _, l := range set.Lineages() {
		if !l.Has(metrics.PhaseExternalize) {
			continue
		}
		externalized++
		if l.Complete() {
			complete++
		}
	}
	return externalized, complete
}

// coordSection fetches one section from the cell's coordinator, once it
// has announced its debug address.
func coordSection[T any](cl *procharness.Cluster, name string) (*T, error) {
	addr, ok := cl.DebugAddr("coordinator")
	if !ok {
		return nil, errors.New("campaign: coordinator debug address not known yet")
	}
	return debugserver.Fetch[T](addr, name)
}

// pollWaste samples the cluster-wide speculation-waste rollup every
// 250ms. The coordinator exits the moment a closed-ended run completes,
// so the last pre-exit sample is the cell's waste ledger (nil when the
// profiler was off or never reported).
func pollWaste(cl *procharness.Cluster) *debugserver.Poller[profiler.Summary] {
	return debugserver.Poll(250*time.Millisecond, func() (*profiler.Summary, error) {
		return coordSection[profiler.Summary](cl, "speculation")
	})
}

// pollRecovery samples the coordinator's recovery anatomy the same way;
// the last sample holding an incident is the cell's final report.
func pollRecovery(cl *procharness.Cluster) *debugserver.Poller[recovery.Report] {
	return debugserver.Poll(250*time.Millisecond, func() (*recovery.Report, error) {
		rep, err := coordSection[recovery.Report](cl, "recovery")
		if err != nil || len(rep.Incidents) == 0 {
			return nil, err
		}
		return rep, nil
	})
}

// healthWatch records, from the coordinator's live health view, how long
// after the fault injection the victim worker was first flagged as a
// straggler and a backpressure root-cause chain (rooted on the victim,
// when one is named) first appeared. It answers the campaign's
// live-diagnosis assertion — the health plane must name the injected
// victim before the fault window closes.
type healthWatch struct {
	poll     *debugserver.Poller[health.View]
	injectAt time.Time
	victim   string // "" accepts any root worker

	// Written by the poller's goroutine only; Stop reads them once that
	// goroutine has exited.
	stragglerMs float64
	chainMs     float64
	chain       string
}

// watchHealth starts sampling the health view every 100ms (the STATUS
// cadence, so the watcher sees every model refresh), timing detections
// from the injection instant.
func watchHealth(cl *procharness.Cluster, victim string, injectAt time.Time) *healthWatch {
	hw := &healthWatch{injectAt: injectAt, victim: victim}
	hw.poll = debugserver.Poll(100*time.Millisecond, func() (*health.View, error) {
		v, err := coordSection[health.View](cl, "health")
		if err == nil {
			hw.observe(v)
		}
		return v, err
	})
	return hw
}

// observe notes the first sample that flags the victim.
func (hw *healthWatch) observe(v *health.View) {
	since := float64(time.Since(hw.injectAt)) / float64(time.Millisecond)
	if hw.stragglerMs == 0 {
		for _, s := range v.Stragglers {
			if s.Worker == hw.victim {
				hw.stragglerMs = since
				break
			}
		}
	}
	if hw.chainMs == 0 {
		for _, c := range v.Backpressure {
			if hw.victim != "" && c.RootWorker != hw.victim {
				continue
			}
			hw.chainMs = since
			hw.chain = fmt.Sprintf("%s (root %s on %s): %s",
				strings.Join(c.Path, " ← "), c.Root, c.RootWorker, c.Reason)
			break
		}
	}
}

// Stop halts polling and returns what was detected (zeros when the
// health plane never flagged the victim, or when no fault was injected
// and the watch never started). Idempotent.
func (hw *healthWatch) Stop() (stragglerMs, chainMs float64, chain string) {
	if hw == nil {
		return 0, 0, ""
	}
	hw.poll.Stop()
	return hw.stragglerMs, hw.chainMs, hw.chain
}
