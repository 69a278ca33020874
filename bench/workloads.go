package main

import (
	"fmt"
	"time"

	"streammine/internal/detrand"
	"streammine/internal/flow"
)

// workload is one named set of inputs the benchmark runs. Names and
// reasons are repeated in BENCHMARK.json; TestSchema keeps them equal.
type workload struct {
	name string
	why  string
	run  func(cfg runCfg) (*result, error)
}

var workloads = []workload{
	{"depth8-closed", "closed loop, 1 event in flight, 8 speculative Classifier hops each logging to its own 1 ms disk: first delivery costs 8 hops, finality about one log write", runDepth8},
	{"pipe2-sat", "closed loop with a window of 4096, EmitBatch runs of 8 through the batched two-stage Classifier pipeline: sustained capacity of the admit, commit and retire path", runPipe2},
	{"sketch-par2", "closed loop with a window of 1024 over a 2-worker SketchOp on the unbatched path, wide sketch and uniform keys: a 24-access STM transaction per event, free of contention", runSketchPar2},
	{"ingest-rate", "open loop at a fixed 10,000 records/s through gateway, engine, TCP cut edge and second engine: latency at a third of capacity, not backlog", runIngestRate},
	{"recover-cycle", "repeated crash and recovery of a checkpointed SketchOp under windowed load: precise recovery with a fixed amount of replay work per cycle", runRecoverCycle},
}

// uniformKeys draws keys uniformly, so Classifier classes are hit evenly.
func uniformKeys(rng *detrand.Source) func() uint64 { return rng.Uint64 }

// syncLatency is the log write depth8-closed is about.
const syncLatency = time.Millisecond

func depth8Spec(cfg runCfg, depth int, speculative bool) closedSpec {
	return closedSpec{
		capacity: 1 << 20,
		window:   1,
		batch:    1,
		build: func(s *sink) (*local, error) {
			return classifierChain(s, cfg.seed, depth, speculative, syncLatency, nil)
		},
		keys: uniformKeys,
		ref:  func(s *sink) reference { return newClassifierRef(4, s.slots, s.emitted.Load()) },
	}
}

func runDepth8(cfg runCfg) (*result, error) {
	out, err := runClosed("depth8-closed", cfg, depth8Spec(cfg, 8, true))
	if out == nil {
		return nil, err
	}
	defer out.close()
	if err != nil || !cfg.traced {
		return out.res, err
	}
	// The paper's comparison, on the same graph: what one hop adds to the
	// first delivery, and what finality costs without speculation.
	one, err := runClosed("depth1", subRun(cfg), depth8Spec(cfg, 1, true))
	if one != nil {
		defer one.close()
	}
	if err != nil {
		return out.res, err
	}
	hop := (out.res.Metrics["first_p50_us"].Value - one.res.Metrics["first_p50_us"].Value) / 7
	out.res.set("core.hop_us", hop, "us")
	nospec, err := runClosed("depth8-nospec", subRun(cfg), depth8Spec(cfg, 8, false))
	if nospec != nil {
		defer nospec.close()
	}
	if err != nil {
		return out.res, err
	}
	out.res.Metrics["core.nospec_final_p50_us"] = nospec.res.Metrics["final_p50_us"]
	return out.res, nil
}

func pipe2Spec(cfg runCfg) closedSpec {
	limits := &flow.Limits{MailboxCap: 2048, CreditWindow: 512, BatchSize: 8}
	return closedSpec{
		capacity: 16 << 20,
		window:   4096,
		batch:    8,
		build: func(s *sink) (*local, error) {
			return classifierChain(s, cfg.seed, 2, true, 0, limits)
		},
		keys: uniformKeys,
		ref:  func(s *sink) reference { return newClassifierRef(4, s.slots, s.emitted.Load()) },
	}
}

func runPipe2(cfg runCfg) (*result, error) {
	out, err := runClosed("pipe2-sat", cfg, pipe2Spec(cfg))
	if out == nil {
		return nil, err
	}
	defer out.close()
	if err != nil || !cfg.traced {
		return out.res, err
	}
	r := out.res
	// What the spans measured from outside, per event, against the whole
	// CPU bill: the rest is spent inside the engine where no span reaches
	// yet.
	events := float64(max(out.snk.finals.Load(), 1))
	rec := out.snk.rec
	attributed := float64(rec.busy[spCoreOpProcess].Load()+rec.busy[spGenEmit].Load()+rec.busy[spStorageDiskWrite].Load()) / 1e3 / events
	cpu := r.Metrics["cpu_us_per_event"].Value
	r.set("core.unattributed_pct", 100*(cpu-attributed)/cpu, "%")
	plain, err := runClosed("pipe2-untraced", subRun(cfg), pipe2Spec(cfg))
	if plain != nil {
		defer plain.close()
	}
	if err != nil {
		return r, err
	}
	base := plain.res.Metrics["events_per_s"].Value
	r.set("trace_overhead_pct", 100*(base-r.Metrics["events_per_s"].Value)/base, "%")
	return r, nil
}

// The sketch of sketch-par2 is wide and its keys uniform, so two
// concurrent transactions rarely touch the same counter: the workload
// measures a 24-access transaction on the unbatched path, not contention.
// A workload whose operations fail cannot compare two commits, and at the
// seed a 2-worker node under contention either finalizes wrong outputs
// (paper finality rule, DESIGN.md §9.1) or, with StrictFinality, stalls for
// good within a few hundred thousand re-executions (ROADMAP open item 1).
// The contended variant the issue drew (skewWidth, skewedKeys) runs as a
// reference sub-run of the traced pass and reports what it loses.
const (
	par2Depth = 8
	par2Width = 8192
	skewWidth = 256
)

// skewedKeys draws Zipf(1.1) keys over 4096 values: a few hot keys, so
// concurrent transactions meet on the same counters.
func skewedKeys(rng *detrand.Source) func() uint64 {
	z := detrand.NewZipf(rng, 4096, 1.1)
	return func() uint64 { return uint64(z.Draw()) }
}

func sketchSpec(cfg runCfg, workers, width int, keys func(*detrand.Source) func() uint64) closedSpec {
	return closedSpec{
		capacity: 8 << 20,
		window:   1024,
		batch:    1,
		build: func(s *sink) (*local, error) {
			return sketchNode(s, cfg.seed, par2Depth, width, workers)
		},
		keys: keys,
		ref:  func(*sink) reference { return newSketchRef(par2Depth, width, sketchSeed) },
	}
}

func runSketchPar2(cfg runCfg) (*result, error) {
	out, err := runClosed("sketch-par2", cfg, sketchSpec(cfg, 2, par2Width, uniformKeys))
	if out == nil {
		return nil, err
	}
	defer out.close()
	if err != nil || !cfg.traced {
		return out.res, err
	}
	r := out.res
	seq, err := runClosed("sketch-par1", subRun(cfg), sketchSpec(cfg, 1, par2Width, uniformKeys))
	if seq != nil {
		defer seq.close()
	}
	if err != nil {
		return r, err
	}
	par1 := seq.res.Metrics["events_per_s"].Value
	r.set("core.par1_events_per_s", par1, "1/s")
	r.set("core.par2_speedup", r.Metrics["events_per_s"].Value/par1, "ratio")

	// Under contention: what the abort rate costs, and what the seed loses.
	skew, err := runClosed("sketch-skew", subRun(cfg), sketchSpec(cfg, 2, skewWidth, skewedKeys))
	if skew != nil {
		defer skew.close()
	}
	if err != nil {
		return r, err
	}
	sr, st := skew.res, skew.sys.eng.TotalStats()
	r.Metrics["core.skew_events_per_s"] = sr.Metrics["events_per_s"]
	r.set("core.skew_failed_pct", 100*float64(min(sr.Failed, sr.Attempted))/float64(max(sr.Attempted, 1)), "%")
	if st.Executed > 0 {
		r.set("core.skew_commit_per_exec", float64(st.Committed)/float64(st.Executed), "ratio")
		r.set("stm.skew_abort_pct", 100*float64(st.Aborts)/float64(st.Executed), "%")
	}
	r.Notes = append(r.Notes, fmt.Sprintf("sketch-skew (Zipf(1.1) keys over 4096 values, %d×%d sketch, %.3g s): %d of %d operations failed",
		par2Depth, skewWidth, subRun(cfg).measure.Seconds(), sr.Failed, sr.Attempted))
	for _, f := range sr.Failures {
		r.Notes = append(r.Notes, fmt.Sprintf("sketch-skew failed: index=%d key=%d %s", f.Index, f.Key, f.Reason))
	}
	for _, n := range sr.Notes {
		r.Notes = append(r.Notes, "sketch-skew: "+n)
	}
	return r, nil
}
