package operator

import (
	"fmt"
	"time"

	"streammine/internal/event"
	"streammine/internal/sketch"
	"streammine/internal/state"
)

// CountWindowAvg emits the average of each tumbling window of Window
// event values (interpreted via DecodeValue). Count-based windows depend
// on arrival order, so the operator is stateful and order-sensitive
// (paper §1).
type CountWindowAvg struct {
	// Window is the number of events per tumbling window.
	Window int

	sum   state.Field
	count state.Field
}

var _ Operator = (*CountWindowAvg)(nil)

// CountWindowTraits describe CountWindowAvg for engine configuration.
var CountWindowTraits = Traits{Stateful: true, OrderSensitive: true, StateWords: 2}

// Init allocates the running sum and count.
func (a *CountWindowAvg) Init(ctx InitContext) error {
	m := ctx.Memory()
	var err error
	if a.sum, err = state.NewField(m); err != nil {
		return err
	}
	a.sum = a.sum.Named(m, "sum")
	if a.count, err = state.NewField(m); err != nil {
		return err
	}
	a.count = a.count.Named(m, "count")
	return nil
}

// Process accumulates and emits the window average on the boundary.
func (a *CountWindowAvg) Process(ctx Context, e event.Event) error {
	tx := ctx.Tx()
	sum, err := a.sum.Add(tx, DecodeValue(e.Payload))
	if err != nil {
		return err
	}
	n, err := a.count.Add(tx, 1)
	if err != nil {
		return err
	}
	if int(n) < a.Window {
		return nil
	}
	if err := a.sum.Set(tx, 0); err != nil {
		return err
	}
	if err := a.count.Set(tx, 0); err != nil {
		return err
	}
	return ctx.Emit(e.Key, valuePayload(ctx, sum/n))
}

// Terminate implements Operator.
func (a *CountWindowAvg) Terminate() error { return nil }

// TimeWindowSum sums event values over tumbling windows of Width ticks of
// *event* (application) time, emitting each window's sum when the first
// event of a later window arrives. Event-time windows are deterministic
// given the input order (paper §1: time-window aggregation is stateful but
// deterministic when based on event timestamps).
type TimeWindowSum struct {
	// Width is the window width in timestamp ticks.
	Width int64

	winStart state.Field
	sum      state.Field
	started  state.Field
}

var _ Operator = (*TimeWindowSum)(nil)

// TimeWindowTraits describe TimeWindowSum for engine configuration.
var TimeWindowTraits = Traits{Stateful: true, Deterministic: true, StateWords: 3}

// Init allocates window bookkeeping.
func (w *TimeWindowSum) Init(ctx InitContext) error {
	m := ctx.Memory()
	var err error
	if w.winStart, err = state.NewField(m); err != nil {
		return err
	}
	w.winStart = w.winStart.Named(m, "win_start")
	if w.sum, err = state.NewField(m); err != nil {
		return err
	}
	w.sum = w.sum.Named(m, "sum")
	if w.started, err = state.NewField(m); err != nil {
		return err
	}
	w.started = w.started.Named(m, "started")
	return nil
}

// Process folds the event into its window, flushing completed windows.
func (w *TimeWindowSum) Process(ctx Context, e event.Event) error {
	if w.Width <= 0 {
		return fmt.Errorf("time window width %d", w.Width)
	}
	tx := ctx.Tx()
	start := e.Timestamp - (e.Timestamp % w.Width)
	started, err := w.started.Get(tx)
	if err != nil {
		return err
	}
	cur := int64(0)
	if started != 0 {
		v, err := w.winStart.Get(tx)
		if err != nil {
			return err
		}
		cur = int64(v)
	}
	switch {
	case started == 0:
		if err := w.started.Set(tx, 1); err != nil {
			return err
		}
		if err := w.winStart.Set(tx, uint64(start)); err != nil {
			return err
		}
		return w.sum.Set(tx, DecodeValue(e.Payload))
	case start == cur:
		_, err := w.sum.Add(tx, DecodeValue(e.Payload))
		return err
	case start > cur:
		// Flush the finished window, stamped at its end.
		s, err := w.sum.Get(tx)
		if err != nil {
			return err
		}
		if err := ctx.EmitAt(cur+w.Width, uint64(cur), valuePayload(ctx, s)); err != nil {
			return err
		}
		if err := w.winStart.Set(tx, uint64(start)); err != nil {
			return err
		}
		return w.sum.Set(tx, DecodeValue(e.Payload))
	default:
		// Late event: fold into the current window (simplest policy).
		_, err := w.sum.Add(tx, DecodeValue(e.Payload))
		return err
	}
}

// Terminate implements Operator.
func (w *TimeWindowSum) Terminate() error { return nil }

// Classifier is the paper's §3.1 running example: each event is assigned
// to one of Classes classes and the operator outputs how many events the
// class has received so far. Two concurrent events conflict exactly when
// they hit the same class — the knob behind the Figure 5 parallelism
// sweep (one class = no parallelism; many classes = high parallelism).
type Classifier struct {
	// Classes is the number of state fields (classes).
	Classes int
	// Cost is simulated per-event computation (classification work).
	Cost time.Duration

	counts state.Array
}

var _ Operator = (*Classifier)(nil)

// ClassifierTraits returns the traits for a classifier with n classes.
func ClassifierTraits(n int) Traits {
	return Traits{Stateful: true, Deterministic: true, StateWords: n}
}

// Init allocates one counter per class.
func (c *Classifier) Init(ctx InitContext) error {
	if c.Classes <= 0 {
		return fmt.Errorf("classifier needs classes > 0, got %d", c.Classes)
	}
	var err error
	if c.counts, err = state.NewArray(ctx.Memory(), c.Classes); err != nil {
		return err
	}
	c.counts = c.counts.Named(ctx.Memory(), "classes")
	return nil
}

// Process classifies by key, bumps the class counter, and emits
// (class, count).
func (c *Classifier) Process(ctx Context, e event.Event) error {
	SimulateWork(c.Cost)
	class := int(e.Key % uint64(c.Classes))
	n, err := c.counts.Add(ctx.Tx(), class, 1)
	if err != nil {
		return err
	}
	return ctx.Emit(uint64(class), pairPayload(ctx, uint64(class), n))
}

// Terminate implements Operator.
func (c *Classifier) Terminate() error { return nil }

// Join matches events from two input streams by key: the latest value
// seen on each side is retained, and an arrival on either side that finds
// a match on the other emits the pair. Matching depends on arrival order
// across streams, making Join stateful and non-deterministic (paper §1).
type Join struct {
	// Buckets is the hash-table capacity per side.
	Buckets int

	sides [2]state.Map
}

var _ Operator = (*Join)(nil)

// JoinTraits returns the traits for a join with the given capacity.
func JoinTraits(buckets int) Traits {
	return Traits{Stateful: true, OrderSensitive: true, StateWords: 2 * buckets * 3}
}

// Init allocates both side tables.
func (j *Join) Init(ctx InitContext) error {
	if j.Buckets <= 0 {
		return fmt.Errorf("join needs buckets > 0, got %d", j.Buckets)
	}
	names := [2]string{"left", "right"}
	for i := range j.sides {
		m, err := state.NewMap(ctx.Memory(), j.Buckets)
		if err != nil {
			return err
		}
		j.sides[i] = m.Named(ctx.Memory(), names[i])
	}
	return nil
}

// Process stores the event's value on its side and probes the other side.
func (j *Join) Process(ctx Context, e event.Event) error {
	side := ctx.InputIndex()
	if side < 0 || side > 1 {
		return fmt.Errorf("join got input index %d", side)
	}
	tx := ctx.Tx()
	if err := j.sides[side].Put(tx, e.Key, DecodeValue(e.Payload)); err != nil {
		return err
	}
	other, found, err := j.sides[1-side].Get(tx, e.Key)
	if err != nil {
		return err
	}
	if !found {
		return nil
	}
	mine := DecodeValue(e.Payload)
	if side == 1 {
		mine, other = other, mine
	}
	return ctx.Emit(e.Key, pairPayload(ctx, mine, other))
}

// Terminate implements Operator.
func (j *Join) Terminate() error { return nil }

// SketchOp is the paper's expensive parallelizable operator (§4, Figures
// 6 and 7): a count sketch over the event keys. Each event updates d
// counters at data-dependent positions and emits the key's new frequency
// estimate; concurrent events conflict only when their counters collide.
type SketchOp struct {
	// Depth and Width are the sketch dimensions.
	Depth, Width int
	// Seed derives the sketch hash functions.
	Seed uint64
	// Cost is simulated per-event analysis computation.
	Cost time.Duration

	cs *sketch.TxCountSketch
}

var _ Operator = (*SketchOp)(nil)

// SketchTraits returns the traits for the given sketch dimensions.
func SketchTraits(depth, width int) Traits {
	return Traits{Stateful: true, Deterministic: true, StateWords: depth * width}
}

// Init allocates the counter matrix.
func (s *SketchOp) Init(ctx InitContext) error {
	cs, err := sketch.NewTxCountSketch(ctx.Memory(), s.Depth, s.Width, s.Seed)
	if err != nil {
		return err
	}
	s.cs = cs
	return nil
}

// Process updates the sketch and emits the key's estimate.
func (s *SketchOp) Process(ctx Context, e event.Event) error {
	SimulateWork(s.Cost)
	tx := ctx.Tx()
	if err := s.cs.Update(tx, e.Key, 1); err != nil {
		return err
	}
	est, err := s.cs.Estimate(tx, e.Key)
	if err != nil {
		return err
	}
	return ctx.Emit(e.Key, valuePayload(ctx, uint64(est)))
}

// Terminate implements Operator.
func (s *SketchOp) Terminate() error { return nil }
