// Package operator defines the operator programming model: the Operator
// interface (Init / Process / Terminate, paper §2.3), the processing
// Context through which operators access transactional state and logged
// non-determinism, and the built-in operators used by the paper's example
// application — filter, map, enrich, union, split, windowed aggregates,
// join, classifier and the count-sketch operator.
//
// Operators never touch wall-clock time or math/rand directly: random
// draws and time reads go through the Context so the engine can log them
// (precise recovery) and replay them after a failure.
package operator

import (
	"sync/atomic"
	"time"

	"streammine/internal/event"
	"streammine/internal/stm"
)

// InitContext is passed to Operator.Init for state allocation. Allocation
// must be deterministic: recovery re-runs Init to rebuild the layout and
// then overwrites the words with the checkpoint image.
type InitContext interface {
	// Memory returns the operator's transactional heap.
	Memory() *stm.Memory
	// OperatorID identifies this operator instance.
	OperatorID() uint32
}

// Context is passed to Operator.Process for each input event.
//
// Lifetime and ownership. ctx and e.Payload are valid only for the
// duration of Process: the engine reuses the context for the next attempt,
// and the payload is the engine's, shared and read-only — an operator must
// not write to it or keep it. The Emit family takes ownership of the
// payload it is handed instead of copying it: the slice must not be
// modified after the call, so an operator emits either a buffer it built
// for this output (Payload, or a slice of its own making) or e.Payload
// itself, never a buffer it will reuse. What Payload returns outlives
// Process: emitted, it belongs to that version of the output for as long as
// anything downstream holds it — the engine hands no byte out twice, not to
// a re-execution either — and bytes taken but not emitted are dropped.
type Context interface {
	// OperatorID identifies this operator instance.
	OperatorID() uint32
	// InputIndex reports which input stream delivered the current event.
	InputIndex() int
	// Tx returns the transaction the event is being processed under. For
	// stateless operators it is still non-nil but unused.
	Tx() *stm.Tx
	// Random returns a logged non-deterministic draw: live it comes from
	// the operator PRNG and is recorded in the decision log; during replay
	// it is fed back from the log.
	Random() (uint64, error)
	// Now returns a logged read of the operator's clock (ticks), with the
	// same log/replay behaviour as Random.
	Now() (int64, error)
	// Emit queues an output event on output port 0 carrying the payload;
	// the engine assigns identity, timestamp (inherited from the input
	// event) and speculation metadata.
	Emit(key uint64, payload []byte) error
	// EmitTo queues an output on a specific output port (Split uses this).
	EmitTo(port int, key uint64, payload []byte) error
	// EmitAt queues an output with an explicit application timestamp
	// (window aggregates emit at window boundaries).
	EmitAt(ts int64, key uint64, payload []byte) error
	// Payload returns n zeroed bytes to build one output's payload in,
	// cut from memory the executing worker owns: a short payload costs no
	// allocation of its own.
	Payload(n int) []byte
}

// Operator is a stream processing operator. Process is called once per
// input event; everything it does must flow through ctx so that it can be
// speculatively executed, rolled back, and replayed.
type Operator interface {
	// Init allocates state; called at startup and again during recovery.
	Init(ctx InitContext) error
	// Process handles one input event.
	Process(ctx Context, e event.Event) error
	// Terminate releases resources; called once at shutdown.
	Terminate() error
}

// Traits describe an operator's fault-tolerance-relevant properties; the
// engine uses them to decide what must be logged (paper §1: stateless/
// stateful × deterministic/non-deterministic).
type Traits struct {
	// Stateful operators need checkpoints; stateless ones only replay.
	Stateful bool
	// Deterministic operators take no loggable decisions themselves.
	Deterministic bool
	// OrderSensitive operators consume multiple inputs whose interleaving
	// must be logged (unions, joins).
	OrderSensitive bool
	// StateWords is the transactional memory capacity the operator needs.
	StateWords int
}

// NopOperator is an embeddable base supplying no-op Init and Terminate.
type NopOperator struct{}

// Init implements Operator with no state.
func (NopOperator) Init(InitContext) error { return nil }

// Terminate implements Operator with no cleanup.
func (NopOperator) Terminate() error { return nil }

// SimulateWork models d of computation time without occupying the CPU
// (time.Sleep). The paper's testbed is a SUN T1000 with 32 hardware
// threads, so concurrent operator executions genuinely overlap; on an
// arbitrary (possibly single-core) reproduction host, sleeping preserves
// that overlap while the STM still serializes genuinely conflicting work
// (DESIGN.md §2, hardware substitution). Built-in operators use this for
// their Cost knobs.
func SimulateWork(d time.Duration) {
	if d <= 0 {
		return
	}
	time.Sleep(d)
}

// BusyWork burns approximately d of CPU time. It models computational
// cost when genuine CPU occupancy matters (single-threaded microbenches
// such as the Figure 8 reproduction); unlike SimulateWork it keeps the
// goroutine on-CPU.
func BusyWork(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	x := uint64(88172645463325252)
	for time.Now().Before(deadline) {
		for i := 0; i < 64; i++ { // xorshift batch between clock checks
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
	}
	busySink.Store(x)
}

// busySink defeats dead-code elimination of BusyWork's loop.
var busySink atomic.Uint64
