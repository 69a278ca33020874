package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"streammine/internal/core"
	"streammine/internal/detrand"
	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
)

// payload is the one event payload of the in-process workloads. The
// built-in stateful operators read only the key, and sharing one slice
// keeps the generator loop free of allocations.
var payload = operator.EncodeValue(7)

// local is a system under test that lives in one engine: a graph fed
// through one source handle and observed through Subscribe.
type local struct {
	eng   *core.Engine
	src   *core.SourceHandle
	pools []*storage.Pool
	disks []*disk
}

// close stops whatever was built, also after a build that failed half way.
func (l *local) close() {
	if l.eng != nil {
		l.eng.Stop()
	}
	for _, p := range l.pools {
		_ = p.Close()
	}
}

// pool makes a one-disk storage pool over a benchmark-owned disk.
func (l *local) pool(s *sink, latency time.Duration, keep bool) *storage.Pool {
	d := &disk{snk: s, latency: latency, keep: keep}
	p := storage.NewPool([]storage.Disk{d})
	l.disks = append(l.disks, d)
	l.pools = append(l.pools, p)
	return p
}

// addSink appends a sink node (see sinkOp) after node out.
func addSink(s *sink, g *graph.Graph, name string, out graph.NodeID, limits *flow.Limits) graph.NodeID {
	n := g.AddNode(graph.Node{Name: name, Op: sinkOp{s: s}, Flow: limits})
	g.Connect(out, 0, n, 0)
	return n
}

// start appends the sink node after node out, builds the engine over g
// and starts it; the system can take its first event when start returns.
func (l *local) start(s *sink, g *graph.Graph, opts core.Options, src, out graph.NodeID, limits *flow.Limits) error {
	sinkNode := addSink(s, g, "sink", out, limits)
	eng, err := core.New(g, opts)
	if err != nil {
		return err
	}
	l.eng = eng
	if err := eng.Subscribe(sinkNode, 0, s.onFinal); err != nil {
		return err
	}
	if s.tap != nil {
		if err := eng.Subscribe(out, 0, s.tap.onEvent); err != nil {
			return err
		}
	}
	if err := eng.Start(); err != nil {
		return err
	}
	l.src, err = eng.Source(src)
	return err
}

// classifierChain builds src → depth × Classifier{4}. With syncLatency
// set every node logs to its own pool over a disk of that latency (the
// paper's one-process-per-operator set-up); otherwise all share one
// zero-latency pool. limits, when set, applies to every node.
func classifierChain(s *sink, seed uint64, depth int, speculative bool, syncLatency time.Duration, limits *flow.Limits) (*local, error) {
	l := &local{}
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src", Flow: limits})
	prev := src
	nodePools := map[graph.NodeID]*storage.Pool{}
	for d := 0; d < depth; d++ {
		n := g.AddNode(graph.Node{
			Name:        fmt.Sprintf("stage%d", d),
			Op:          s.op(&operator.Classifier{Classes: 4}),
			Traits:      operator.ClassifierTraits(4),
			Speculative: speculative,
			Flow:        limits,
		})
		g.Connect(prev, 0, n, 0)
		prev = n
		if syncLatency > 0 {
			nodePools[n] = l.pool(s, syncLatency, false)
		}
	}
	opts := engineOptions(seed, l.pool(s, 0, false))
	opts.NodePools = nodePools
	if err := l.start(s, g, opts, src, prev, limits); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// sketchNode builds src → SketchOp{depth, width} with the given workers.
const sketchSeed = 0x5eed

func sketchNode(s *sink, seed uint64, depth, width, workers int) (*local, error) {
	l := &local{}
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	n := g.AddNode(graph.Node{
		Name:        "sketch",
		Op:          s.op(&operator.SketchOp{Depth: depth, Width: width, Seed: sketchSeed}),
		Traits:      operator.SketchTraits(depth, width),
		Speculative: true,
		Workers:     workers,
	})
	g.Connect(src, 0, n, 0)
	if err := l.start(s, g, engineOptions(seed, l.pool(s, 0, false)), src, n, nil); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// closedSpec describes a closed-loop workload over a local system.
type closedSpec struct {
	capacity int   // sink table size: more events than the fastest plausible run emits
	window   int64 // events in flight
	batch    int   // 1 = Emit, more = EmitBatch runs of that length
	build    func(s *sink) (*local, error)
	keys     func(rng *detrand.Source) func() uint64
	ref      func(s *sink) reference
}

// closedRun is what a closed-loop run leaves behind for reporting.
type closedRun struct {
	res  *result
	snk  *sink
	sys  *local
	emit []int64 // traced pass: time the generator spent inside each Emit/EmitBatch call of the measured window, ns
}

// close releases everything a closed-loop run holds.
func (c *closedRun) close() {
	if c.sys != nil {
		c.sys.close()
	}
	c.snk.close()
}

// timeSetups measures setup_s and returns the last system built, for the
// run to use. A set-up takes tens of microseconds to a millisecond, short
// enough for a GC cycle, the wind-down of the system built before it or one
// descheduled vCPU to double it, and such noise only ever adds time. So the
// collector is off while set-ups are timed and runs between samples, every
// set-up starts a millisecond after the previous system was closed, a
// sample is the fastest of three consecutive set-ups, and setup_s is the
// median of cfg.setups samples.
func timeSetups[T interface{ close() }](cfg runCfg, build func() (T, error)) (T, float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var sys T
	samples := make([]float64, 0, cfg.setups)
	for i := 0; i < cfg.setups; i++ {
		runtime.GC()
		best := math.Inf(1)
		for j := 0; j < 3; j++ {
			if i+j > 0 {
				sys.close()
				time.Sleep(time.Millisecond)
			}
			start := time.Now()
			var err error
			if sys, err = build(); err != nil {
				return sys, 0, err
			}
			best = min(best, time.Since(start).Seconds())
		}
		samples = append(samples, best)
	}
	return sys, medianFloat(samples), nil
}

// watchdog closes the returned channel if the run outlives every deadline
// it could legitimately need; stop it when the run ends.
func watchdog(cfg runCfg) (<-chan struct{}, func()) {
	abort := make(chan struct{})
	t := time.AfterFunc(cfg.warm+cfg.measure+2*cfg.drain+10*time.Second, func() { close(abort) })
	return abort, func() { t.Stop() }
}

var errAborted = errors.New("bench: watchdog aborted a run that outlived all its deadlines")

// runClosed drives a closed-loop workload: warm up, measure, drain,
// check. The caller closes the run it returns, also next to an error.
func runClosed(name string, cfg runCfg, spec closedSpec) (*closedRun, error) {
	snk, err := newSink(spec.capacity)
	if err != nil {
		return nil, err
	}
	out := &closedRun{snk: snk, res: &result{Workload: name, Seed: cfg.seed, Traced: cfg.traced, Metrics: map[string]value{}}}
	if err := snk.trace(cfg); err != nil {
		return out, err
	}
	sys, setup, err := timeSetups(cfg, func() (*local, error) { return spec.build(snk) })
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
	win := newWindow(spec.window, snk, abort, cfg.stall)
	key := spec.keys(detrand.New(cfg.seed))
	items := make([]core.BatchItem, spec.batch)
	for i := range items {
		items[i].Payload = payload
	}
	ph, err := newPhases(snk, cfg)
	if err != nil {
		return out, err
	}
	var emitTimes []int64
	if cfg.traced {
		emitTimes = make([]int64, 0, 1<<20)
	}
	n := int64(spec.batch)
	for {
		if !win.reserve(n) {
			return out, errAborted
		}
		now := snk.now()
		if on, err := ph.running(now); err != nil {
			return out, err
		} else if !on {
			break
		}
		first := snk.emitted.Load() + 1
		if first+n > snk.capacity() {
			return out, fmt.Errorf("bench: %s outran its sink table of %d events; raise closedSpec.capacity", name, spec.capacity)
		}
		for i := int64(0); i < n; i++ {
			sl := &snk.slots[first+i]
			sl.key, sl.dueNs = key(), now
			items[i].Key = sl.key
		}
		snk.emitted.Store(first + n - 1)
		var req uint64
		if spec.batch == 1 {
			ev, err := sys.src.Emit(items[0].Key, payload)
			if err != nil {
				return out, fmt.Errorf("emit: %w", err)
			}
			req = ev.Trace
		} else {
			evs, err := sys.src.EmitBatch(items)
			if err != nil {
				return out, fmt.Errorf("emit batch: %w", err)
			}
			req = evs[0].Trace
		}
		end := snk.now()
		if ph.measuring() && len(emitTimes) < cap(emitTimes) {
			emitTimes = append(emitTimes, end-now)
		}
		if snk.rec != nil {
			snk.rec.span(spGenEmit, req, now, end)
		}
	}
	out.emit = emitTimes
	drain(snk, cfg, sys.eng)
	whole, err := ph.wholeRun()
	if err != nil {
		return out, err
	}
	if err := endToEnd(out.res, snk, ph.marks, whole); err != nil {
		return out, err
	}
	verdictInto(out.res, check(snk.slots, snk.emitted.Load(), spec.ref(snk)))
	faultsInto(out.res, snk.strays.Load(), sys.eng)
	if err := win.verdict(out.res, name); err != nil {
		return out, err
	}
	if cfg.traced {
		return out, closedLayers(out, sm, cfg)
	}
	return out, nil
}

// spanCapacity bounds the traced pass's span table (40 bytes each, off
// the Go heap); spans beyond it are counted and dropped.
const spanCapacity = 8 << 20
