package experiments

import (
	"time"

	"streammine/internal/event"
	"streammine/internal/operator"
	"streammine/internal/sketch"
	"streammine/internal/state"
)

// costlyClassifier is the measurement variant of operator.Classifier: it
// burns CPU, updates one of K class counters, and forwards the *input*
// payload unchanged so latency stamps survive the hop.
type costlyClassifier struct {
	classes int
	cost    time.Duration
	counts  state.Array
}

var _ operator.Operator = (*costlyClassifier)(nil)

func (c *costlyClassifier) Init(ctx operator.InitContext) error {
	arr, err := state.NewArray(ctx.Memory(), c.classes)
	if err != nil {
		return err
	}
	c.counts = arr
	return nil
}

// Process follows the read–compute–write pattern of instrumented code:
// the class counter is read before the computation and written after it,
// so two concurrent executions hitting the same class genuinely conflict
// across the whole execution window (paper Fig. 5's collision semantics).
func (c *costlyClassifier) Process(ctx operator.Context, e event.Event) error {
	class := int(e.Key % uint64(c.classes))
	v, err := c.counts.Get(ctx.Tx(), class)
	if err != nil {
		return err
	}
	operator.SimulateWork(c.cost)
	if err := c.counts.Set(ctx.Tx(), class, v+1); err != nil {
		return err
	}
	return ctx.Emit(e.Key, e.Payload)
}

func (c *costlyClassifier) Terminate() error { return nil }

// stampedSketch is the measurement variant of operator.SketchOp: count-
// sketch update + estimate with simulated analysis cost, forwarding the
// input payload so latency stamps survive.
type stampedSketch struct {
	depth, width int
	seed         uint64
	cost         time.Duration
	cs           *sketch.TxCountSketch
}

var _ operator.Operator = (*stampedSketch)(nil)

func (s *stampedSketch) Init(ctx operator.InitContext) error {
	cs, err := sketch.NewTxCountSketch(ctx.Memory(), s.depth, s.width, s.seed)
	if err != nil {
		return err
	}
	s.cs = cs
	return nil
}

func (s *stampedSketch) Process(ctx operator.Context, e event.Event) error {
	operator.SimulateWork(s.cost)
	if err := s.cs.Update(ctx.Tx(), e.Key, 1); err != nil {
		return err
	}
	if _, err := s.cs.Estimate(ctx.Tx(), e.Key); err != nil {
		return err
	}
	return ctx.Emit(e.Key, e.Payload)
}

func (s *stampedSketch) Terminate() error { return nil }
