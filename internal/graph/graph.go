package graph

import (
	"errors"
	"fmt"

	"streammine/internal/flow"
	"streammine/internal/operator"
)

// NodeID identifies a node within one Graph.
type NodeID int

// Node is one operator instance in the graph.
type Node struct {
	// ID is assigned by AddNode.
	ID NodeID
	// Name is a human-readable label (unique within the graph).
	Name string
	// Op is the operator implementation; nil marks a source node driven
	// externally (publishers).
	Op operator.Operator
	// Traits describe the operator's fault-tolerance class.
	Traits operator.Traits
	// Speculative configures the node to emit outputs before its log is
	// stable (the paper's per-operator speculation switch, §2.3).
	Speculative bool
	// Workers is the maximum number of concurrent processing threads
	// (optimistic parallelization); minimum 1.
	Workers int
	// OutputPorts is the number of distinct output ports (Split uses >1).
	OutputPorts int
	// CheckpointEvery triggers a state checkpoint every N processed
	// events (0 disables periodic checkpoints).
	CheckpointEvery int
	// StableID, when non-zero, overrides the operator identity used for
	// decision-log records, checkpoints, and event IDs. The cluster
	// runtime sets it to the node's position in the *global* topology so
	// identities stay stable when a partition subgraph (whose local IDs
	// are renumbered from 0) is rebuilt on another worker.
	StableID uint32
	// RemoteInputs lists input indices fed from outside this graph (a
	// cluster bridge delivers them). Validation treats them as occupied,
	// so a partition subgraph with a mix of local and remote inputs still
	// passes the contiguity check.
	RemoteInputs []int
	// Flow configures backpressure, admission control and speculation
	// throttling for this node; nil disables all flow control.
	Flow *flow.Limits
}

// Edge connects node From's output port FromPort to node To's input
// stream ToInput.
type Edge struct {
	From     NodeID
	FromPort int
	To       NodeID
	ToInput  int
}

// Graph is a mutable operator topology. Build it single-threaded, then
// Validate before handing it to the engine.
type Graph struct {
	nodes []Node
	edges []Edge
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{}
}

// Common validation errors.
var (
	// ErrCycle reports that the topology contains a directed cycle.
	ErrCycle = errors.New("graph: cycle detected")
	// ErrBadEdge reports an edge referencing unknown nodes/ports.
	ErrBadEdge = errors.New("graph: invalid edge")
	// ErrDupName reports two nodes sharing a name.
	ErrDupName = errors.New("graph: duplicate node name")
)

// AddNode appends a node and returns its ID. Zero-valued Workers and
// OutputPorts are normalized to 1.
func (g *Graph) AddNode(n Node) NodeID {
	n.ID = NodeID(len(g.nodes))
	if n.Workers < 1 {
		n.Workers = 1
	}
	if n.OutputPorts < 1 {
		n.OutputPorts = 1
	}
	g.nodes = append(g.nodes, n)
	return n.ID
}

// Connect adds an edge from's port fromPort to to's input toInput.
func (g *Graph) Connect(from NodeID, fromPort int, to NodeID, toInput int) {
	g.edges = append(g.edges, Edge{From: from, FromPort: fromPort, To: to, ToInput: toInput})
}

// Nodes returns the node list (do not mutate).
func (g *Graph) Nodes() []Node { return g.nodes }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) (Node, error) {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		return Node{}, fmt.Errorf("%w: node %d", ErrBadEdge, id)
	}
	return g.nodes[id], nil
}

// Edges returns the edge list (do not mutate).
func (g *Graph) Edges() []Edge { return g.edges }

// InputsOf returns the edges feeding node id, sorted by input index order
// of appearance.
func (g *Graph) InputsOf(id NodeID) []Edge {
	var out []Edge
	for _, e := range g.edges {
		if e.To == id {
			out = append(out, e)
		}
	}
	return out
}

// OutputsOf returns the edges leaving node id.
func (g *Graph) OutputsOf(id NodeID) []Edge {
	var out []Edge
	for _, e := range g.edges {
		if e.From == id {
			out = append(out, e)
		}
	}
	return out
}

// Validate checks structural integrity: unique names, edges referencing
// existing nodes and ports, contiguous input indices starting at 0, and
// acyclicity.
func (g *Graph) Validate() error {
	names := make(map[string]bool, len(g.nodes))
	for _, n := range g.nodes {
		if n.Name != "" && names[n.Name] {
			return fmt.Errorf("%w: %q", ErrDupName, n.Name)
		}
		names[n.Name] = true
	}
	inputSeen := make(map[NodeID]map[int]bool)
	for _, n := range g.nodes {
		for _, i := range n.RemoteInputs {
			if i < 0 {
				return fmt.Errorf("%w: node %d remote input %d", ErrBadEdge, n.ID, i)
			}
			m := inputSeen[n.ID]
			if m == nil {
				m = make(map[int]bool)
				inputSeen[n.ID] = m
			}
			if m[i] {
				return fmt.Errorf("%w: node %d remote input %d declared twice", ErrBadEdge, n.ID, i)
			}
			m[i] = true
		}
	}
	for _, e := range g.edges {
		if int(e.From) < 0 || int(e.From) >= len(g.nodes) ||
			int(e.To) < 0 || int(e.To) >= len(g.nodes) {
			return fmt.Errorf("%w: %d→%d references unknown node", ErrBadEdge, e.From, e.To)
		}
		if e.FromPort < 0 || e.FromPort >= g.nodes[e.From].OutputPorts {
			return fmt.Errorf("%w: node %d has no output port %d", ErrBadEdge, e.From, e.FromPort)
		}
		if e.ToInput < 0 {
			return fmt.Errorf("%w: negative input index %d", ErrBadEdge, e.ToInput)
		}
		m := inputSeen[e.To]
		if m == nil {
			m = make(map[int]bool)
			inputSeen[e.To] = m
		}
		if m[e.ToInput] {
			return fmt.Errorf("%w: node %d input %d connected twice", ErrBadEdge, e.To, e.ToInput)
		}
		m[e.ToInput] = true
	}
	// Inputs must be contiguous 0..k-1.
	for id, m := range inputSeen {
		for i := 0; i < len(m); i++ {
			if !m[i] {
				return fmt.Errorf("%w: node %d inputs not contiguous (missing %d)", ErrBadEdge, id, i)
			}
		}
	}
	if _, err := g.TopoOrder(); err != nil {
		return err
	}
	return nil
}

// TopoOrder returns a topological ordering of the nodes, or ErrCycle.
func (g *Graph) TopoOrder() ([]NodeID, error) {
	indeg := make([]int, len(g.nodes))
	for _, e := range g.edges {
		indeg[e.To]++
	}
	var queue []NodeID
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, NodeID(i))
		}
	}
	var order []NodeID
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		for _, e := range g.edges {
			if e.From != n {
				continue
			}
			indeg[e.To]--
			if indeg[e.To] == 0 {
				queue = append(queue, e.To)
			}
		}
	}
	if len(order) != len(g.nodes) {
		return nil, ErrCycle
	}
	return order, nil
}
