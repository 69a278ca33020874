package main

import (
	"fmt"
	"slices"

	"streammine/internal/detrand"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
)

// The recover-cycle workload repeats one fixed piece of recovery work:
//
//	src → proc SketchOp{4,1024}, CheckpointEvery 2000 ─┬→ post Classifier{4} → sink
//	                                                   └→ tap
//
// Each cycle emits cycleEvents events through a window, crashes proc once
// the sink holds crashAfter of the cycle's finals, recovers it, emits the
// rest and waits for all of them. proc logs to its own pool over a disk
// that keeps its bytes; recovery reads them back through wal.Scan
// (Options.LogScanner) and restores from the benchmark's checkpoint store.
//
// post only reports (class, count), which proves that proc delivered every
// event exactly once across the crash but says nothing about proc's own
// state. tap, a second sink node on proc's output, checks the estimates
// themselves against the reference sketch.
const (
	cycleEvents     = 4000
	crashAfter      = 3000
	cycleWindow     = 1024
	checkpointEvery = 2000
)

type recoverSystem struct {
	local
	proc     graph.NodeID
	procDisk *disk
	store    *ckptStore
}

func buildRecover(s, tap *sink, seed uint64) (*recoverSystem, error) {
	sys := &recoverSystem{store: newCkptStore(s)}
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	sys.proc = g.AddNode(graph.Node{
		Name:            "proc",
		Op:              s.op(&operator.SketchOp{Depth: 4, Width: 1024, Seed: sketchSeed}),
		Traits:          operator.SketchTraits(4, 1024),
		Speculative:     true,
		CheckpointEvery: checkpointEvery,
	})
	post := g.AddNode(graph.Node{
		Name:        "post",
		Op:          s.op(&operator.Classifier{Classes: 4}),
		Traits:      operator.ClassifierTraits(4),
		Speculative: true,
	})
	g.Connect(src, 0, sys.proc, 0)
	g.Connect(sys.proc, 0, post, 0)
	tapNode := addSink(tap, g, "tap", sys.proc, nil)

	procPool := sys.pool(s, 0, true)
	sys.procDisk = sys.disks[0]
	opts := engineOptions(seed, sys.pool(s, 0, false))
	opts.NodePools = map[graph.NodeID]*storage.Pool{sys.proc: procPool}
	opts.CheckpointStore = sys.store
	opts.LogScanner = sys.procDisk.scan
	if err := sys.start(s, g, opts, src, post, nil); err != nil {
		sys.close()
		return nil, err
	}
	if err := sys.eng.Subscribe(tapNode, 0, tap.onFinal); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

// recoverRun is the state of one recover-cycle run.
type recoverRun struct {
	res       *result
	snk, tap  *sink
	sys       *recoverSystem
	recoverNs []int64 // Crash call → sink holds every final emitted before the crash
	crashNs   []int64 // inside Engine.Crash
	callNs    []int64 // inside Engine.Recover
	cycles    int

	// Engine.RecoveryStats after each cycle of a traced run.
	replayNs, replayEvents, replayDrops, logRecords []int64
}

func (r *recoverRun) close() {
	if r.sys != nil {
		r.sys.close()
	}
	r.snk.close()
	r.tap.close()
}

func runRecoverCycle(cfg runCfg) (*result, error) {
	const capacity = 4 << 20
	snk, err := newSink(capacity)
	if err != nil {
		return nil, err
	}
	tap, err := newSink(capacity)
	if err != nil {
		snk.close()
		return nil, err
	}
	out, err := recoverCycles(cfg, snk, tap, capacity)
	out.close()
	return out.res, err
}

func recoverCycles(cfg runCfg, snk, tap *sink, capacity int) (*recoverRun, error) {
	tap.epoch = snk.epoch
	out := &recoverRun{snk: snk, tap: tap, res: &result{Workload: "recover-cycle", Seed: cfg.seed, Traced: cfg.traced, Metrics: map[string]value{}}}
	if err := snk.trace(cfg); err != nil {
		return out, err
	}
	sys, setup, err := timeSetups(cfg, func() (*recoverSystem, error) { return buildRecover(snk, tap, cfg.seed) })
	if err != nil {
		return out, err
	}
	out.sys = sys
	out.res.set("setup_s", setup, "s")

	var sm *sampler
	if cfg.traced {
		sm = startSampler(snk, cfg, sys.eng)
		defer sm.halt()
	}
	abort, stop := watchdog(cfg)
	defer stop()
	win := newWindow(cycleWindow, snk, abort, cfg.stall)
	rng := detrand.New(cfg.seed)
	ph, err := newPhases(snk, cfg)
	if err != nil {
		return out, err
	}

	// emit sends one event through the window.
	emit := func() error {
		if !win.reserve(1) {
			return errAborted
		}
		now := snk.now()
		// Slice marks are taken on time even in mid-cycle; whether to stop
		// is only asked between cycles.
		if _, err := ph.running(now); err != nil {
			return err
		}
		idx := snk.emitted.Load() + 1
		if idx > snk.capacity() {
			return fmt.Errorf("bench: recover-cycle outran its sink table of %d events", capacity)
		}
		key := uint64(rng.Intn(1 << 16))
		snk.slots[idx].key, snk.slots[idx].dueNs = key, now
		tap.slots[idx].key, tap.slots[idx].dueNs = key, now
		snk.emitted.Store(idx)
		tap.emitted.Store(idx)
		ev, err := sys.src.Emit(key, payload)
		if err != nil {
			return fmt.Errorf("emit: %w", err)
		}
		if snk.rec != nil {
			snk.rec.span(spGenEmit, ev.Trace, now, snk.now())
		}
		return nil
	}

	for ; ; out.cycles++ {
		if on, err := ph.running(snk.now()); err != nil {
			return out, err
		} else if !on {
			break
		}
		base := snk.emitted.Load()
		for snk.emitted.Load() < base+cycleEvents && snk.finals.Load() < base+crashAfter {
			if err := emit(); err != nil {
				return out, err
			}
		}
		win.await(base + crashAfter)
		measured := ph.measuring()
		before := snk.emitted.Load()
		t0 := snk.now()
		if err := sys.eng.Crash(sys.proc); err != nil {
			return out, fmt.Errorf("crash: %w", err)
		}
		t1 := snk.now()
		if err := sys.eng.Recover(sys.proc); err != nil {
			return out, fmt.Errorf("recover: %w", err)
		}
		t2 := snk.now()
		if snk.rec != nil {
			snk.rec.span(spCoreCrash, 0, t0, t1)
			snk.rec.span(spCoreRecover, 0, t1, t2)
		}
		// Keep the load coming while the node catches up, and note the
		// moment the sink holds everything emitted before the crash.
		caught := int64(0)
		note := func() {
			if caught == 0 && snk.finals.Load() >= before {
				caught = snk.now()
			}
		}
		for snk.emitted.Load() < base+cycleEvents {
			if err := emit(); err != nil {
				return out, err
			}
			note()
		}
		if caught == 0 && win.await(before) {
			note()
		}
		if measured && caught != 0 {
			out.recoverNs = append(out.recoverNs, caught-t0)
			out.crashNs = append(out.crashNs, t1-t0)
			out.callNs = append(out.callNs, t2-t1)
		}
		win.await(base + cycleEvents)
		if st := sys.eng.RecoveryStats(); cfg.traced && measured && st.ReplayDone {
			out.replayNs = append(out.replayNs, st.ReplayEndNs-st.ReplayStartNs)
			out.replayEvents = append(out.replayEvents, st.ReplayEvents)
			out.replayDrops = append(out.replayDrops, st.ReplayDrops)
			out.logRecords = append(out.logRecords, st.LogRecords)
		}
		// The system is idle between cycles: compact the log like a
		// deployment's segment pruning would.
		if err := sys.procDisk.prune(uint32(sys.proc)); err != nil {
			return out, err
		}
	}
	drain(snk, cfg, sys.eng)
	whole, err := ph.wholeRun()
	if err != nil {
		return out, err
	}
	if err := endToEnd(out.res, snk, ph.marks, whole); err != nil {
		return out, err
	}
	// The traced pass reports the recovery time as core.recover_p50_ms; an
	// untraced run mentions it, because it is what this workload is about.
	rs := summarize(slices.Clone(out.recoverNs), 0.99)
	out.res.Notes = append(out.res.Notes, fmt.Sprintf("recovery (Crash call → sink caught up): p50 %.3f ms over the %d cycles of the measured window; %d cycles in the run",
		float64(rs.p50)/1e6, rs.n, out.cycles))
	verdictInto(out.res, check(snk.slots, snk.emitted.Load(), newClassifierRef(4, snk.slots, snk.emitted.Load())))
	// The tap shares the events; its failures count, its attempts do not.
	tv := check(tap.slots, tap.emitted.Load(), newSketchRef(4, 1024, sketchSeed))
	tv.attempted = 0
	for i := range tv.first {
		tv.first[i].Reason = "tap on proc: " + tv.first[i].Reason
	}
	verdictInto(out.res, tv)
	faultsInto(out.res, snk.strays.Load()+tap.strays.Load(), sys.eng)
	if err := win.verdict(out.res, "recover-cycle"); err != nil {
		return out, err
	}
	if cfg.traced {
		return out, recoverLayers(out, sm, cfg)
	}
	return out, nil
}

// recoverLayers completes the traced pass of recover-cycle. Per-cycle
// figures are medians over the cycles of the measured window.
func recoverLayers(out *recoverRun, sm *sampler, cfg runCfg) error {
	r, s, sys := out.res, out.snk, out.sys
	sm.finish(r)
	layerCounters(r, s, sys.disks, sys.eng)
	median := func(name string, v []int64, unit string) {
		q := summarize(v, 0.99)
		if unit == "count" {
			r.Metrics[name] = value{Value: float64(q.p50), Unit: unit, Samples: q.n}
			return
		}
		r.setTiming(name, q.p50, unit, q.n, "")
	}
	median("core.recover_p50_ms", out.recoverNs, "ms")
	median("core.crash_us", out.crashNs, "us")
	median("core.recover_call_us", out.callNs, "us")
	median("core.replay_ms", out.replayNs, "ms")
	median("core.replay_events", out.replayEvents, "count")
	median("core.replay_drops", out.replayDrops, "count")
	median("wal.records_scanned", out.logRecords, "count")
	r.set("checkpoint.saves", float64(sys.store.saves.Load()), "count")
	r.set("checkpoint.bytes", float64(sys.store.saveBytes.Load()), "B")
	spanP50(r, "checkpoint.save_p50_us", s.rec, spCheckpointSave, "us")
	spanP50(r, "checkpoint.latest_p50_us", s.rec, spCheckpointLatest, "us")
	return traceDone(r, s, cfg)
}
