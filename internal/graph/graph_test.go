package graph

import (
	"errors"
	"testing"

	"streammine/internal/operator"
)

// chain builds src → a → b with default settings.
func chain(t *testing.T) (*Graph, NodeID, NodeID, NodeID) {
	t.Helper()
	g := New()
	src := g.AddNode(Node{Name: "src"})
	a := g.AddNode(Node{Name: "a", Op: &operator.Union{}})
	b := g.AddNode(Node{Name: "b", Op: &operator.Filter{}})
	g.Connect(src, 0, a, 0)
	g.Connect(a, 0, b, 0)
	return g, src, a, b
}

func TestValidChain(t *testing.T) {
	g, src, a, b := chain(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != src || order[1] != a || order[2] != b {
		t.Fatalf("order = %v", order)
	}
	if len(g.InputsOf(src)) != 0 || len(g.OutputsOf(b)) != 0 {
		t.Fatalf("chain ends: src inputs %v, b outputs %v", g.InputsOf(src), g.OutputsOf(b))
	}
}

func TestNodeDefaults(t *testing.T) {
	g := New()
	id := g.AddNode(Node{Name: "n"})
	n, err := g.Node(id)
	if err != nil {
		t.Fatal(err)
	}
	if n.Workers != 1 || n.OutputPorts != 1 {
		t.Fatalf("defaults not applied: %+v", n)
	}
	if _, err := g.Node(99); err == nil {
		t.Fatal("Node(99) succeeded")
	}
}

func TestCycleDetected(t *testing.T) {
	g := New()
	a := g.AddNode(Node{Name: "a"})
	b := g.AddNode(Node{Name: "b"})
	g.Connect(a, 0, b, 0)
	g.Connect(b, 0, a, 0)
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Validate = %v, want ErrCycle", err)
	}
}

func TestSelfLoopDetected(t *testing.T) {
	g := New()
	a := g.AddNode(Node{Name: "a"})
	g.Connect(a, 0, a, 0)
	if err := g.Validate(); !errors.Is(err, ErrCycle) {
		t.Fatalf("Validate = %v, want ErrCycle", err)
	}
}

func TestDuplicateName(t *testing.T) {
	g := New()
	g.AddNode(Node{Name: "x"})
	g.AddNode(Node{Name: "x"})
	if err := g.Validate(); !errors.Is(err, ErrDupName) {
		t.Fatalf("Validate = %v, want ErrDupName", err)
	}
}

func TestBadEdges(t *testing.T) {
	tests := []struct {
		name  string
		build func(g *Graph)
	}{
		{"unknown node", func(g *Graph) {
			a := g.AddNode(Node{Name: "a"})
			g.Connect(a, 0, NodeID(9), 0)
		}},
		{"bad port", func(g *Graph) {
			a := g.AddNode(Node{Name: "a", OutputPorts: 1})
			b := g.AddNode(Node{Name: "b"})
			g.Connect(a, 2, b, 0)
		}},
		{"negative input", func(g *Graph) {
			a := g.AddNode(Node{Name: "a"})
			b := g.AddNode(Node{Name: "b"})
			g.Connect(a, 0, b, -1)
		}},
		{"double-connected input", func(g *Graph) {
			a := g.AddNode(Node{Name: "a"})
			b := g.AddNode(Node{Name: "b"})
			c := g.AddNode(Node{Name: "c"})
			g.Connect(a, 0, c, 0)
			g.Connect(b, 0, c, 0)
		}},
		{"non-contiguous inputs", func(g *Graph) {
			a := g.AddNode(Node{Name: "a"})
			b := g.AddNode(Node{Name: "b"})
			g.Connect(a, 0, b, 1)
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g := New()
			tt.build(g)
			if err := g.Validate(); !errors.Is(err, ErrBadEdge) {
				t.Fatalf("Validate = %v, want ErrBadEdge", err)
			}
		})
	}
}

func TestDiamondTopology(t *testing.T) {
	// The paper's Fig. 1 shape: two publishers → union/processor → split →
	// consumers, here as a diamond.
	g := New()
	p1 := g.AddNode(Node{Name: "p1"})
	p2 := g.AddNode(Node{Name: "p2"})
	union := g.AddNode(Node{Name: "union", Op: &operator.Union{}, Traits: operator.Traits{OrderSensitive: true}})
	split := g.AddNode(Node{Name: "split", Op: &operator.Split{Outputs: 2}, OutputPorts: 2})
	c1 := g.AddNode(Node{Name: "c1"})
	c2 := g.AddNode(Node{Name: "c2"})
	g.Connect(p1, 0, union, 0)
	g.Connect(p2, 0, union, 1)
	g.Connect(union, 0, split, 0)
	g.Connect(split, 0, c1, 0)
	g.Connect(split, 1, c2, 0)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if ins := g.InputsOf(union); len(ins) != 2 {
		t.Fatalf("union inputs = %d", len(ins))
	}
	if outs := g.OutputsOf(split); len(outs) != 2 {
		t.Fatalf("split outputs = %d", len(outs))
	}
	if len(g.InputsOf(p1)) != 0 || len(g.InputsOf(p2)) != 0 {
		t.Fatal("diamond sources have inputs")
	}
}

func TestFanInOrderPreserved(t *testing.T) {
	g := New()
	a := g.AddNode(Node{Name: "a"})
	b := g.AddNode(Node{Name: "b"})
	j := g.AddNode(Node{Name: "join", Op: &operator.Join{Buckets: 4}})
	g.Connect(a, 0, j, 0)
	g.Connect(b, 0, j, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	ins := g.InputsOf(j)
	if ins[0].ToInput != 0 || ins[1].ToInput != 1 {
		t.Fatalf("inputs = %+v", ins)
	}
}
