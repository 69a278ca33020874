package cq

import (
	"fmt"

	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
)

// Options configure the compiled pipeline.
type Options struct {
	// Speculative applies to every generated node.
	Speculative bool
	// Workers is the worker count for the aggregate stage (optimistic
	// parallelization); minimum 1.
	Workers int
	// NamePrefix prefixes generated node names (default "cq").
	NamePrefix string
}

// The aggregate stage takes no checkpoints. COUNT(DISTINCT KEY) counts
// with a HyperLogLog of distinctPrecision; SELECT DISTINCT KEY remembers
// dedupCapacity keys.
const (
	distinctPrecision = 12
	dedupCapacity     = 1024
)

// Attached reports the nodes a query compiled to.
type Attached struct {
	// Output is the node whose port 0 carries the query results.
	Output graph.NodeID
	// Nodes lists every node the query added, in pipeline order.
	Nodes []graph.NodeID
}

// Attach compiles the query into operator nodes inside g, connecting them
// to the named source nodes. Sources maps FROM names to existing nodes
// (their port 0 is used).
func Attach(g *graph.Graph, q *Query, sources map[string]graph.NodeID, opts Options) (*Attached, error) {
	if opts.NamePrefix == "" {
		opts.NamePrefix = "cq"
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	var upstream []graph.NodeID
	for _, name := range q.Sources {
		id, ok := sources[name]
		if !ok {
			return nil, fmt.Errorf("cq: unknown source %q", name)
		}
		upstream = append(upstream, id)
	}

	att := &Attached{}
	head := upstream[0]
	if len(upstream) > 1 {
		union := g.AddNode(graph.Node{
			Name:        opts.NamePrefix + "-union",
			Op:          &operator.Union{},
			Traits:      operator.Traits{Stateful: true, OrderSensitive: true},
			Speculative: opts.Speculative,
		})
		for i, up := range upstream {
			g.Connect(up, 0, union, i)
		}
		att.Nodes = append(att.Nodes, union)
		head = union
	}

	if q.Where != nil {
		filter := g.AddNode(graph.Node{
			Name:        opts.NamePrefix + "-filter",
			Op:          &operator.Filter{Pred: predicateFn(q.Where)},
			Traits:      operator.FilterTraits,
			Speculative: opts.Speculative,
		})
		g.Connect(head, 0, filter, 0)
		att.Nodes = append(att.Nodes, filter)
		head = filter
	}

	spec, err := aggregateNode(q, opts)
	if err != nil {
		return nil, err
	}
	agg := g.AddNode(spec)
	g.Connect(head, 0, agg, 0)
	att.Nodes = append(att.Nodes, agg)
	att.Output = agg

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("cq: compiled graph invalid: %w", err)
	}
	return att, nil
}

// aggregateNode builds the selection's operator node.
func aggregateNode(q *Query, opts Options) (graph.Node, error) {
	n := graph.Node{
		Name:        opts.NamePrefix + "-agg",
		Speculative: opts.Speculative,
		Workers:     opts.Workers,
	}
	switch q.Agg {
	case AggAvg:
		n.Op = &operator.CountWindowAvg{Window: int(q.Size)}
		n.Traits = operator.CountWindowTraits
	case AggSum:
		n.Op = &operator.TimeWindowSum{Width: q.Size}
		n.Traits = operator.TimeWindowTraits
	case AggCountClass:
		n.Op = &operator.Classifier{Classes: int(q.Size)}
		n.Traits = operator.ClassifierTraits(int(q.Size))
	case AggCountDistinct:
		n.Op = &operator.DistinctCount{Precision: distinctPrecision, Seed: 0x5EED}
		n.Traits = operator.DistinctCountTraits(distinctPrecision)
	case AggDistinct:
		n.Op = &operator.Dedup{Capacity: dedupCapacity}
		n.Traits = operator.DedupTraits(dedupCapacity)
	case AggProject:
		n.Op = &operator.Passthrough{}
		n.Traits = operator.Traits{Deterministic: true}
	default:
		return graph.Node{}, fmt.Errorf("cq: no operator for selection %d", q.Agg)
	}
	return n, nil
}

// predicateFn compiles a WHERE clause to a filter predicate.
func predicateFn(p *Predicate) func(event.Event) bool {
	field := func(e event.Event) uint64 {
		v := e.Key
		if p.Field == FieldValue {
			v = operator.DecodeValue(e.Payload)
		}
		if p.Mod > 0 {
			v %= p.Mod
		}
		return v
	}
	lit := p.Literal
	switch p.Op {
	case "==":
		return func(e event.Event) bool { return field(e) == lit }
	case "!=":
		return func(e event.Event) bool { return field(e) != lit }
	case "<":
		return func(e event.Event) bool { return field(e) < lit }
	case "<=":
		return func(e event.Event) bool { return field(e) <= lit }
	case ">":
		return func(e event.Event) bool { return field(e) > lit }
	case ">=":
		return func(e event.Event) bool { return field(e) >= lit }
	default:
		// Parser guarantees a valid operator; reject everything if not.
		return func(event.Event) bool { return false }
	}
}
