package operator

import (
	"fmt"

	"streammine/internal/event"
	"streammine/internal/sketch"
	"streammine/internal/state"
)

// DistinctCount estimates the number of distinct keys seen so far with a
// transactional HyperLogLog, emitting the running estimate after every
// event. Like the count sketch, each update touches one data-dependent
// register, so the operator parallelizes optimistically.
type DistinctCount struct {
	// Precision sets 2^Precision HLL registers (4..16).
	Precision uint
	// Seed derives the hash function.
	Seed uint64

	hll *sketch.TxHyperLogLog
}

var _ Operator = (*DistinctCount)(nil)

// DistinctCountTraits returns the traits for the given precision.
func DistinctCountTraits(precision uint) Traits {
	return Traits{Stateful: true, Deterministic: true, StateWords: 1 << precision}
}

// Init allocates the registers.
func (d *DistinctCount) Init(ctx InitContext) error {
	hll, err := sketch.NewTxHyperLogLog(ctx.Memory(), d.Precision, d.Seed)
	if err != nil {
		return err
	}
	d.hll = hll
	return nil
}

// Process observes the key and emits the running distinct estimate.
func (d *DistinctCount) Process(ctx Context, e event.Event) error {
	tx := ctx.Tx()
	if err := d.hll.Add(tx, e.Key); err != nil {
		return err
	}
	est, err := d.hll.Estimate(tx)
	if err != nil {
		return err
	}
	return ctx.Emit(e.Key, valuePayload(ctx, est))
}

// Terminate implements Operator.
func (d *DistinctCount) Terminate() error { return nil }

// Dedup forwards only the first occurrence of each key, remembering keys
// in a transactional hash set of fixed capacity. When the set fills up it
// is cleared (generation reset) — a pragmatic bounded-memory policy for
// streams whose duplicates cluster in time.
type Dedup struct {
	// Capacity is the number of distinct keys remembered per generation.
	Capacity int

	seen state.Map
	size state.Field
}

var _ Operator = (*Dedup)(nil)

// DedupTraits returns the traits for the given capacity.
func DedupTraits(capacity int) Traits {
	return Traits{Stateful: true, Deterministic: true, StateWords: capacity*2*3 + 1}
}

// Init allocates the key set (2× buckets for probe headroom).
func (d *Dedup) Init(ctx InitContext) error {
	if d.Capacity <= 0 {
		return fmt.Errorf("dedup needs capacity > 0, got %d", d.Capacity)
	}
	m, err := state.NewMap(ctx.Memory(), d.Capacity*2)
	if err != nil {
		return err
	}
	d.seen = m
	size, err := state.NewField(ctx.Memory())
	if err != nil {
		return err
	}
	d.size = size
	return nil
}

// Process drops keys already seen in the current generation.
func (d *Dedup) Process(ctx Context, e event.Event) error {
	tx := ctx.Tx()
	_, dup, err := d.seen.Get(tx, e.Key)
	if err != nil {
		return err
	}
	if dup {
		return nil
	}
	n, err := d.size.Get(tx)
	if err != nil {
		return err
	}
	if int(n) >= d.Capacity {
		// Generation reset: forget everything and start over (bounded
		// memory at the price of possible duplicates across generations).
		if err := d.seen.Clear(tx); err != nil {
			return err
		}
		n = 0
	}
	if err := d.seen.Put(tx, e.Key, 1); err != nil {
		return err
	}
	if err := d.size.Set(tx, n+1); err != nil {
		return err
	}
	return ctx.Emit(e.Key, e.Payload)
}

// Terminate implements Operator.
func (d *Dedup) Terminate() error { return nil }
