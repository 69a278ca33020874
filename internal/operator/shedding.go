package operator

import (
	"fmt"

	"streammine/internal/event"
	"streammine/internal/state"
)

// Shedder drops a configurable fraction of events to protect downstream
// operators from overload — the load-management technique Borealis uses
// (paper §5, Tatbul et al.). Each drop decision is a *logged* random draw,
// so a shedding pipeline still recovers precisely: replay drops exactly
// the same events.
type Shedder struct {
	NopOperator
	// DropPerMille is the drop probability in thousandths (0..1000).
	DropPerMille uint64
}

var _ Operator = (*Shedder)(nil)

// ShedderTraits describe Shedder for engine configuration (it takes a
// logged decision per event).
var ShedderTraits = Traits{}

// Process forwards the event unless the logged draw sheds it.
func (s *Shedder) Process(ctx Context, e event.Event) error {
	if s.DropPerMille > 0 {
		r, err := ctx.Random()
		if err != nil {
			return err
		}
		if r%1000 < s.DropPerMille {
			return nil
		}
	}
	return ctx.Emit(e.Key, e.Payload)
}

// Pattern detects a fixed per-key sequence of stages — a minimal complex-
// event-processing operator. An event's payload value names a stage; when
// a key's events traverse Stages in order, Pattern emits one match event
// (payload = number of completed matches for that key) and resets that
// key. Out-of-sequence stages reset progress (to stage 1 if the event is
// the first stage, else to zero), the common CEP "strict contiguity"
// policy.
type Pattern struct {
	// Stages is the value sequence to match; at least two entries.
	Stages []uint64
	// Buckets bounds the number of concurrently tracked keys.
	Buckets int

	progress state.Map // key → next stage index
	matches  state.Map // key → completed match count
}

var _ Operator = (*Pattern)(nil)

// PatternTraits returns the traits for the given key capacity.
func PatternTraits(buckets int) Traits {
	return Traits{Stateful: true, Deterministic: true, StateWords: 2 * buckets * 3}
}

// Init allocates the tracking tables.
func (p *Pattern) Init(ctx InitContext) error {
	if len(p.Stages) < 2 {
		return fmt.Errorf("pattern needs at least 2 stages, got %d", len(p.Stages))
	}
	if p.Buckets <= 0 {
		return fmt.Errorf("pattern needs buckets > 0, got %d", p.Buckets)
	}
	var err error
	if p.progress, err = state.NewMap(ctx.Memory(), p.Buckets); err != nil {
		return err
	}
	p.matches, err = state.NewMap(ctx.Memory(), p.Buckets)
	return err
}

// Process advances the key's pattern state machine.
func (p *Pattern) Process(ctx Context, e event.Event) error {
	tx := ctx.Tx()
	stage := DecodeValue(e.Payload)
	cur, _, err := p.progress.Get(tx, e.Key)
	if err != nil {
		return err
	}
	next := uint64(0)
	switch {
	case stage == p.Stages[cur]:
		next = cur + 1
	case stage == p.Stages[0]:
		next = 1
	}
	if int(next) < len(p.Stages) {
		return p.progress.Put(tx, e.Key, next)
	}
	// Full match: bump the key's match count, reset, and emit.
	n, _, err := p.matches.Get(tx, e.Key)
	if err != nil {
		return err
	}
	n++
	if err := p.matches.Put(tx, e.Key, n); err != nil {
		return err
	}
	if err := p.progress.Put(tx, e.Key, 0); err != nil {
		return err
	}
	return ctx.Emit(e.Key, valuePayload(ctx, n))
}

// Terminate implements Operator.
func (p *Pattern) Terminate() error { return nil }
