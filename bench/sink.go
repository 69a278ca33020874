package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/operator"
	"streammine/internal/storage"
)

// slot is everything the harness knows about one source event. The
// generator fills key and dueNs before the event enters the system; the
// sink callback fills the rest. Slots are indexed by the event's position
// in the source's emission order, which the engine carries for us: every
// engine under test runs on seqClock, so a source event's Timestamp is
// its 1-based emission index and every derived output inherits it.
type slot struct {
	key   uint64 // generated input key
	dueNs int64  // creation time (closed loops) or scheduled send time (open loop)

	firstNs atomic.Int64 // first availability at the sink, speculative or final
	finalNs atomic.Int64 // first final delivery

	// The first final's content, compared with the reference after the run.
	outKey uint64
	v0, v1 uint64

	state   atomic.Uint32 // slotEmpty → slotClaimed → slotFinal
	badDups atomic.Uint32 // later finals whose content differed from the first
}

const (
	slotEmpty uint32 = iota
	slotClaimed
	slotFinal
)

// Every engine under test runs with Options.StrictFinality (engineOptions).
// Under the
// paper's own finality rule (the default, DESIGN.md §9.1) a node may send
// an output final and later have to replace it; at the seed that happens
// once in a few hundred thousand events on the batched pipeline and once
// in a few million across a recovery, the sink would record the first,
// wrong final, and a benchmark whose operations fail cannot compare two
// commits. core.final_violations stays in the per-layer list so the rule's
// cost and the hole's rate can be measured again when that changes.

// seqClock makes vclock.Ticker hand out 1, 2, 3, …: the engine's source
// timestamps become emission indices (see slot).
type seqClock struct{}

func (seqClock) Now() int64 { return 0 }

// engineOptions are the options every engine under test shares.
func engineOptions(seed uint64, pool *storage.Pool) core.Options {
	return core.Options{Seed: seed, Pool: pool, Clock: seqClock{}, StrictFinality: true}
}

// sink collects what leaves the system. Its callback runs on engine
// goroutines, so it takes no locks and allocates nothing.
type sink struct {
	slots []slot
	free  func()
	epoch time.Time

	emitted   atomic.Int64 // highest index handed to the system
	finals    atomic.Int64 // distinct indices finalized
	dupFinals atomic.Int64 // byte-identical repeated finals (legal, paper §2.2)
	strays    atomic.Int64 // outputs whose index was never emitted

	wake chan struct{} // one pending nudge for a generator blocked on its window

	rec      *recorder  // span recorder; nil outside the traced pass
	tap      *directTap // direct subscriber on the last speculative node; traced pass only
	reqByKey bool       // spans carry the record key as request id (ingest path), not the trace id
}

func newSink(capacity int) (*sink, error) {
	slots, free, err := offHeap[slot](capacity + 1) // index 0 is unused
	if err != nil {
		return nil, err
	}
	return &sink{slots: slots, free: free, epoch: time.Now(), wake: make(chan struct{}, 1)}, nil
}

func (s *sink) close() {
	s.free()
	if s.rec != nil {
		s.rec.close()
	}
	if s.tap != nil {
		s.tap.free()
	}
}

// trace switches the sink to the traced pass when cfg asks for it: spans
// are recorded and a direct subscriber watches the last speculative node.
func (s *sink) trace(cfg runCfg) (err error) {
	if !cfg.traced {
		return nil
	}
	if s.rec, err = newRecorder(spanCapacity); err != nil {
		return err
	}
	s.tap, err = newDirectTap(s.capacity())
	return err
}

// now is the harness clock: nanoseconds since the sink was created.
func (s *sink) now() int64 { return int64(time.Since(s.epoch)) }

// capacity is the highest index the table can hold.
func (s *sink) capacity() int64 { return int64(len(s.slots) - 1) }

// The sink is a graph node of its own: sinkOp, not speculative, with
// onFinal subscribed to its output. A non-speculative node still runs
// Process as soon as an input arrives, speculative or not — that call is
// the first availability of a result — but holds its own output until
// every input is final, so the subscriber sees exactly one final event per
// result. Subscribing to a speculative node directly would show the same
// two moments, but at the seed that path loses finals (a FINALIZE that
// overtakes its EVENT is dropped by the subscriber link; ROADMAP open item
// 1), and a benchmark whose operations fail cannot compare two commits.
// The traced pass still attaches such a direct subscriber (tap) and
// reports what it loses.
type sinkOp struct {
	operator.NopOperator
	s *sink
}

// Process notes the first arrival and forwards the event unchanged.
func (o sinkOp) Process(ctx operator.Context, e event.Event) error {
	s := o.s
	if idx := e.Timestamp; idx >= 1 && idx <= s.emitted.Load() {
		sl := &s.slots[idx]
		if sl.firstNs.Load() == 0 {
			now := s.now()
			if sl.firstNs.CompareAndSwap(0, now) && s.rec != nil {
				s.rec.span(spSinkFirst, s.req(e), sl.dueNs, now)
			}
		}
	}
	return ctx.Emit(e.Key, e.Payload)
}

// req is the request id spans carry for an event.
func (s *sink) req(e event.Event) uint64 {
	if s.reqByKey {
		return e.Key
	}
	return e.Trace
}

// onFinal is the Subscribe callback on the sink node's output.
func (s *sink) onFinal(ev event.Event, final bool) {
	now := s.now()
	idx := ev.Timestamp
	if !final || idx < 1 || idx > s.emitted.Load() {
		s.strays.Add(1) // a non-speculative node sends nothing speculative
		return
	}
	sl := &s.slots[idx]
	v0, v1 := operator.DecodePair(ev.Payload) // zero-extends an 8-byte value
	if sl.state.CompareAndSwap(slotEmpty, slotClaimed) {
		sl.outKey, sl.v0, sl.v1 = ev.Key, v0, v1
		sl.finalNs.Store(now)
		sl.state.Store(slotFinal)
		s.finals.Add(1)
		if s.rec != nil {
			s.rec.span(spSinkFinal, s.req(ev), sl.dueNs, now)
		}
		select {
		case s.wake <- struct{}{}:
		default:
		}
		return
	}
	// A repeated final (recovery re-sends them): wait out a concurrent
	// first delivery, then compare content.
	for sl.state.Load() != slotFinal {
		runtime.Gosched()
	}
	if sl.outKey == ev.Key && sl.v0 == v0 && sl.v1 == v1 {
		s.dupFinals.Add(1)
	} else {
		sl.badDups.Add(1)
	}
}
