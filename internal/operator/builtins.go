package operator

import (
	"fmt"
	"time"

	"streammine/internal/event"
)

// Filter forwards events for which Pred returns true. Stateless and
// deterministic (paper §1's cheapest class).
type Filter struct {
	NopOperator
	// Pred decides whether to forward the event.
	Pred func(e event.Event) bool
}

var _ Operator = (*Filter)(nil)

// FilterTraits describe Filter for engine configuration.
var FilterTraits = Traits{Deterministic: true}

// Process forwards matching events unchanged.
func (f *Filter) Process(ctx Context, e event.Event) error {
	if f.Pred == nil || f.Pred(e) {
		return ctx.Emit(e.Key, e.Payload)
	}
	return nil
}

// Map transforms each event's payload with Fn. Stateless, deterministic.
type Map struct {
	NopOperator
	// Fn computes the output payload, which it hands over (Context's
	// ownership rule); returning an error drops the graph into failure
	// handling.
	Fn func(e event.Event) ([]byte, error)
}

var _ Operator = (*Map)(nil)

// Process emits the transformed payload.
func (m *Map) Process(ctx Context, e event.Event) error {
	out, err := m.Fn(e)
	if err != nil {
		return fmt.Errorf("map fn: %w", err)
	}
	return ctx.Emit(e.Key, out)
}

// Enrich models the paper's enrichment step: a costly stateless operation
// (e.g. a database lookup) that appends derived information to the event.
// Being stateless and order-insensitive it parallelizes by replication.
type Enrich struct {
	NopOperator
	// Cost is the simulated per-event computation time.
	Cost time.Duration
	// Annotate produces the enrichment suffix; nil appends nothing.
	Annotate func(e event.Event) []byte
}

var _ Operator = (*Enrich)(nil)

// EnrichTraits describe Enrich for engine configuration.
var EnrichTraits = Traits{Deterministic: true}

// Process burns the configured cost and emits payload+annotation.
func (en *Enrich) Process(ctx Context, e event.Event) error {
	SimulateWork(en.Cost)
	payload := e.Payload
	if en.Annotate != nil {
		suffix := en.Annotate(e)
		merged := make([]byte, 0, len(payload)+len(suffix))
		merged = append(merged, payload...)
		merged = append(merged, suffix...)
		payload = merged
	}
	return ctx.Emit(e.Key, payload)
}

// Union merges its input streams into one output stream. The operator
// itself is a pass-through; its non-determinism is the interleaving order,
// which the engine logs per event (Traits.OrderSensitive).
type Union struct {
	NopOperator
}

var _ Operator = (*Union)(nil)

// Process forwards the event unchanged.
func (u *Union) Process(ctx Context, e event.Event) error {
	return ctx.Emit(e.Key, e.Payload)
}

// Split balances events across Outputs downstream branches. With
// ByKey=false the branch is chosen by a logged random draw (the paper's
// §2.2 Split example: stateless but non-deterministic); with ByKey=true it
// hashes the event key (deterministic partitioning).
type Split struct {
	NopOperator
	// Outputs is the number of output ports.
	Outputs int
	// ByKey selects deterministic key partitioning instead of random
	// load balancing.
	ByKey bool
}

var _ Operator = (*Split)(nil)

// Process routes the event to one output port.
func (s *Split) Process(ctx Context, e event.Event) error {
	n := s.Outputs
	if n <= 0 {
		n = 1
	}
	var port int
	if s.ByKey {
		port = int(e.Key % uint64(n))
	} else {
		r, err := ctx.Random()
		if err != nil {
			return err
		}
		port = int(r % uint64(n))
	}
	return ctx.EmitTo(port, e.Key, e.Payload)
}

// Passthrough forwards every event and optionally burns CPU and/or takes a
// logged decision per event; it is the configurable unit operator used by
// the latency experiments (Figures 2, 3, 8), where each pipeline stage
// "logs a 64-bit value as decision" per event.
type Passthrough struct {
	NopOperator
	// Cost is simulated computation per event.
	Cost time.Duration
	// LogDecision draws one logged random value per event, reproducing
	// the paper's per-event 64-bit decision.
	LogDecision bool
}

var _ Operator = (*Passthrough)(nil)

// Process optionally works and draws, then forwards the event.
func (p *Passthrough) Process(ctx Context, e event.Event) error {
	SimulateWork(p.Cost)
	if p.LogDecision {
		if _, err := ctx.Random(); err != nil {
			return err
		}
	}
	return ctx.Emit(e.Key, e.Payload)
}
