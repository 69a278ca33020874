package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"streammine/internal/core"
	"streammine/internal/event"
)

// The traced pass is a second, shorter run with the timing wrappers on
// and spans recorded. End-to-end figures never come from it.

// sampler reads, at 10 Hz while a traced run is going, what only exists
// as an instantaneous value: heap in use and the engines' flow pressure.
type sampler struct {
	engines []*core.Engine
	s       *sink
	mid     int64 // harness-clock midpoint of the measured window
	stop    chan struct{}
	once    sync.Once
	done    chan struct{}

	heapPeak     [2]float64 // MB, first and second half of the measured window
	creditQueued int        // highest number of outputs parked behind credit gates
}

func startSampler(s *sink, cfg runCfg, engines ...*core.Engine) *sampler {
	now := s.now()
	sm := &sampler{engines: engines, s: s, mid: now + int64(cfg.warm+cfg.measure/2),
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sm.done)
		heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		warmEnd := now + int64(cfg.warm)
		for {
			select {
			case <-sm.stop:
				return
			case <-tick.C:
			}
			for _, e := range sm.engines {
				for _, p := range e.Pressure() {
					sm.creditQueued = max(sm.creditQueued, p.CreditQueued)
				}
			}
			t := s.now()
			if t < warmEnd {
				continue
			}
			metrics.Read(heap)
			mb := float64(heap[0].Value.Uint64()+heap[1].Value.Uint64()) / (1 << 20)
			half := 0
			if t >= sm.mid {
				half = 1
			}
			sm.heapPeak[half] = max(sm.heapPeak[half], mb)
		}
	}()
	return sm
}

// halt stops the sampling goroutine and waits for it; it may be called
// more than once.
func (sm *sampler) halt() {
	sm.once.Do(func() { close(sm.stop) })
	<-sm.done
}

// finish stops the sampler and files its readings.
func (sm *sampler) finish(r *result) {
	sm.halt()
	r.set("core.heap_inuse_peak_mb_h1", sm.heapPeak[0], "MB")
	r.set("core.heap_inuse_peak_mb_h2", sm.heapPeak[1], "MB")
	r.set("flow.credit_queued_max", float64(sm.creditQueued), "count")
}

// directTap subscribes straight to a speculative node's output, the way
// the sink would if that path kept its promise, and counts the outputs
// that were delivered speculatively and never finalized. It exists to
// keep the loss in sight (see sinkOp); nothing is timed through it.
type directTap struct {
	flags []atomic.Uint32 // bit 0: speculative copy seen, bit 1: final seen
	free  func()
}

func newDirectTap(capacity int64) (*directTap, error) {
	flags, free, err := offHeap[atomic.Uint32](int(capacity) + 1)
	if err != nil {
		return nil, err
	}
	return &directTap{flags: flags, free: free}, nil
}

func (t *directTap) onEvent(ev event.Event, final bool) {
	if ev.Timestamp < 1 || ev.Timestamp >= int64(len(t.flags)) {
		return
	}
	bit := uint32(1)
	if final {
		bit = 2
	}
	f := &t.flags[ev.Timestamp]
	for old := f.Load(); old&bit == 0 && !f.CompareAndSwap(old, old|bit); old = f.Load() {
	}
}

// lost lists the indices whose speculative output was never finalized.
func (t *directTap) lost(emitted int64) []int64 {
	var out []int64
	for i := int64(1); i <= emitted; i++ {
		if t.flags[i].Load() == 1 {
			out = append(out, i)
		}
	}
	return out
}

// layerCounters files what the engines, the disks and the span recorder
// counted during a traced run. events is the number of finalized outputs
// the per-event ratios are taken over.
func layerCounters(r *result, s *sink, disks []*disk, engines ...*core.Engine) {
	var st core.NodeStats
	highWater := 0
	var shed uint64
	for _, e := range engines {
		t := e.TotalStats()
		st.Dispatched += t.Dispatched
		st.Executed += t.Executed
		st.Committed += t.Committed
		st.Reexecuted += t.Reexecuted
		st.SpecSent += t.SpecSent
		st.FinalSent += t.FinalSent
		st.Aborts += t.Aborts
		st.Conflicts += t.Conflicts
		st.FinalViolations += t.FinalViolations
		for _, p := range e.Pressure() {
			highWater = max(highWater, p.DataHighWater)
			shed += p.Shed
		}
	}
	count := func(name string, v uint64) { r.set(name, float64(v), "count") }
	count("core.dispatched", st.Dispatched)
	count("core.executed", st.Executed)
	count("core.committed", st.Committed)
	count("core.reexecuted", st.Reexecuted)
	count("core.aborts", st.Aborts)
	count("core.spec_sent", st.SpecSent)
	count("core.final_sent", st.FinalSent)
	count("core.final_violations", st.FinalViolations)
	count("core.dup_finals", uint64(s.dupFinals.Load()))
	count("stm.conflicts", st.Conflicts)
	count("flow.mailbox_highwater", uint64(highWater))
	count("flow.shed", shed)
	if st.Executed > 0 {
		r.set("core.commit_per_exec", float64(st.Committed)/float64(st.Executed), "ratio")
		r.set("stm.abort_pct", 100*float64(st.Aborts)/float64(st.Executed), "%")
	}
	if r.Attempted > 0 {
		r.set("core.failed_pct", 100*float64(min(r.Failed, r.Attempted))/float64(r.Attempted), "%")
	}

	events := float64(max(s.finals.Load(), 1))
	var writes, bytes, busy int64
	for _, d := range disks {
		writes += d.writes.Load()
		bytes += d.bytes.Load()
		busy += d.busyNs.Load()
	}
	count("storage.writes", uint64(writes))
	r.set("storage.write_bytes", float64(bytes), "B")
	r.set("storage.write_busy_us", float64(busy)/1e3, "us")
	r.set("storage.writes_per_event", float64(writes)/events, "ratio")
	r.set("wal.bytes_per_event", float64(bytes)/events, "B")

	rec := s.rec
	r.set("core.op_busy_us_per_event", float64(rec.busy[spCoreOpProcess].Load())/1e3/events, "us")
	count("trace.spans", uint64(rec.next.Load()))
	count("trace.spans_dropped", uint64(rec.dropped.Load()))

	// Speculation's head start: first availability → final, per event.
	var gap []int64
	for i := int64(1); i <= s.emitted.Load(); i++ {
		first, final := s.slots[i].firstNs.Load(), s.slots[i].finalNs.Load()
		if first != 0 && final != 0 {
			gap = append(gap, final-first)
		}
	}
	g := summarize(gap, 0.99)
	r.setTiming("core.spec_to_final_p50_us", g.p50, "us", g.n, "")
}

// spanP50 files the median duration of one span kind.
func spanP50(r *result, name string, rec *recorder, kind int, unit string) {
	d := rec.durations(kind)
	r.setTiming(name, quantile(d, 0.5), unit, len(d), "")
}

// subRun derives the configuration of a short untraced reference run from
// a traced run's.
func subRun(cfg runCfg) runCfg {
	cfg.traced = false
	cfg.setups = 1
	cfg.warm = cfg.sub / 4
	cfg.measure = cfg.sub
	return cfg
}

// closedLayers completes the traced pass of a closed-loop workload.
func closedLayers(out *closedRun, sm *sampler, cfg runCfg) error {
	r, s := out.res, out.snk
	sm.finish(r)
	layerCounters(r, s, out.sys.disks, out.sys.eng)
	e := summarize(out.emit, 0.99)
	r.setTiming("flow.emit_wait_p99_us", e.tail, "us", e.n, tailNote(e))
	return traceDone(r, s, cfg)
}

// traceDone files what the direct subscriber lost and writes the span
// file if one was asked for.
func traceDone(r *result, s *sink, cfg runCfg) error {
	lost := s.tap.lost(s.emitted.Load())
	r.set("core.direct_sub_lost_finals", float64(len(lost)), "count")
	for _, i := range lost[:min(len(lost), maxListedFailures)] {
		r.Notes = append(r.Notes, fmt.Sprintf("direct subscriber: speculative output of index %d (key %d) was never finalized", i, s.slots[i].key))
	}
	if cfg.spans == "" {
		return nil
	}
	if err := writeChromeTrace(cfg.spans, s.rec.recorded()); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	r.Notes = append(r.Notes, fmt.Sprintf("%d spans written to %s", len(s.rec.recorded()), cfg.spans))
	return nil
}
