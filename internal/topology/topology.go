// Package topology loads the JSON pipeline description accepted by the
// streammine command and builds validated operator graphs from it —
// whole (Build) or restricted to one cluster partition (BuildSubset).
// The optional placement section assigns nodes to cluster workers.
package topology

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/operator"
)

// Config is the JSON description of a pipeline.
type Config struct {
	// Speculative is the default speculation switch for all nodes.
	Speculative bool `json:"speculative"`
	// DiskLatencyMillis models the stable-storage write time.
	DiskLatencyMillis int `json:"diskLatencyMillis"`
	// Disks is the number of storage points (default 1).
	Disks int `json:"disks"`
	// Seed makes runs reproducible.
	Seed uint64 `json:"seed"`
	// Nodes lists the operators; edges derive from each node's inputs.
	Nodes []NodeConfig `json:"nodes"`
	// Placement optionally assigns nodes to cluster workers; ignored by
	// the single-process runner.
	Placement *Placement `json:"placement"`
	// Flow is the default flow-control configuration applied to every
	// node; a node's own flow section overrides it entirely. Nil disables
	// flow control (the pre-flow unbounded behavior).
	Flow *flow.Limits `json:"flow"`
	// SLOP99Millis declares the end-to-end p99 latency target for this
	// topology in milliseconds (0 = no SLO declared). The coordinator's
	// health model decomposes the budget across hops and flags the
	// dominating one (/debug/health, docs/OBSERVABILITY.md). The -slo
	// flag overrides it at deploy time.
	SLOP99Millis int `json:"sloP99Millis,omitempty"`
}

// SLO returns the declared end-to-end p99 target, or 0 when none is set.
func (cfg *Config) SLO() time.Duration {
	return time.Duration(cfg.SLOP99Millis) * time.Millisecond
}

// Placement distributes the topology over cluster workers.
type Placement struct {
	// Workers is the number of partitions to create when Assign leaves
	// nodes unassigned: those are spread round-robin over partitions
	// 0..Workers-1 (default 1).
	Workers int `json:"workers"`
	// Assign pins node names to partition indices.
	Assign map[string]int `json:"assign"`
}

// NodeConfig is one node of the topology.
type NodeConfig struct {
	Name string `json:"name"`
	// Type selects the operator: source, union, split, classifier,
	// count_window_avg, time_window_sum, sketch, enrich, passthrough,
	// join, filter_even, shedder, pattern, distinct_count, dedup, sink.
	Type string `json:"type"`
	// Inputs are upstream node names, in input-index order. For split
	// upstreams, the form "name:port" selects an output port.
	Inputs []string `json:"inputs"`

	// Source parameters.
	Rate  int `json:"rate"`  // events/second
	Count int `json:"count"` // total events to publish
	// Ingest marks a source as network-fed: instead of a synthetic
	// publisher, records arrive through the multi-tenant ingest gateway
	// (-ingest-addr, docs/INGEST.md). Rate and Count are ignored; the
	// stream is open-ended and its durability is the gateway's admission
	// log rather than the in-process harness.
	Ingest bool `json:"ingest,omitempty"`

	// Operator parameters (meaning depends on Type).
	Window       int      `json:"window"`
	Width        int      `json:"width"`
	Depth        int      `json:"depth"`
	Classes      int      `json:"classes"`
	Buckets      int      `json:"buckets"`
	Outputs      int      `json:"outputs"`
	CostMicros   int      `json:"costMicros"`
	LogDecision  bool     `json:"logDecision"`
	DropPerMille uint64   `json:"dropPerMille"`
	Stages       []uint64 `json:"stages"`
	Precision    uint     `json:"precision"`
	Workers      int      `json:"workers"`
	Checkpoint   int      `json:"checkpointEvery"`
	Speculative  *bool    `json:"speculative"`
	Key          string   `json:"key"` // split: "hash" for by-key routing

	// Flow overrides the topology-level flow-control defaults for this
	// node (whole-section replacement, not field merge).
	Flow *flow.Limits `json:"flow"`
}

// Load reads and parses a topology file.
func Load(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read topology: %w", err)
	}
	return Parse(data)
}

// Parse parses a topology from raw JSON.
func Parse(data []byte) (*Config, error) {
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("parse topology: %w", err)
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("topology has no nodes")
	}
	return &cfg, nil
}

// Built carries a constructed graph plus the roles a runner needs to
// drive it.
type Built struct {
	Graph   *graph.Graph
	Sources []SourceSpec
	Sinks   []graph.NodeID
	Names   map[string]graph.NodeID
}

// SourceSpec is one source node with its publishing parameters.
type SourceSpec struct {
	ID    graph.NodeID
	Name  string
	Rate  int
	Count int
	// Ingest marks the source as fed by the network ingest gateway; the
	// runner must register it there instead of publishing synthetically.
	Ingest bool
}

// Build converts the whole config into a validated graph.
func (cfg *Config) Build() (*Built, error) {
	return cfg.build(nil)
}

// BuildSubset builds the partition subgraph containing only the named
// nodes. Each node's StableID is set to its position in the full
// topology (+1), so operator identities — decision-log records,
// checkpoints, output-event IDs — survive re-partitioning. Inputs fed
// from nodes outside the subset become RemoteInputs (a cluster bridge
// delivers them).
func (cfg *Config) BuildSubset(members []string) (*Built, error) {
	in := make(map[string]bool, len(members))
	for _, m := range members {
		in[m] = true
	}
	all := make(map[string]bool, len(cfg.Nodes))
	for _, nc := range cfg.Nodes {
		all[nc.Name] = true
	}
	for _, m := range members {
		if !all[m] {
			return nil, fmt.Errorf("subset member %q is not in the topology", m)
		}
	}
	return cfg.build(in)
}

// build constructs the graph; in == nil selects every node (Build), and
// then StableIDs are left zero so single-process behavior is unchanged.
func (cfg *Config) build(in map[string]bool) (*Built, error) {
	g := graph.New()
	res := &Built{Graph: g, Names: make(map[string]graph.NodeID)}
	all := make(map[string]bool, len(cfg.Nodes))
	for _, nc := range cfg.Nodes {
		all[nc.Name] = true
	}

	for gi, nc := range cfg.Nodes {
		if in != nil && !in[nc.Name] {
			continue
		}
		spec, isSource, isSink, err := cfg.makeNode(nc)
		if err != nil {
			return nil, fmt.Errorf("node %q: %w", nc.Name, err)
		}
		if in != nil {
			spec.StableID = uint32(gi) + 1
			for input, ref := range nc.Inputs {
				name, _ := splitRef(ref)
				if !in[name] {
					spec.RemoteInputs = append(spec.RemoteInputs, input)
				}
			}
		}
		id := g.AddNode(spec)
		res.Names[nc.Name] = id
		if isSource {
			rate := nc.Rate
			if rate <= 0 {
				rate = 1000
			}
			count := nc.Count
			if count <= 0 {
				count = 1000
			}
			res.Sources = append(res.Sources, SourceSpec{ID: id, Name: nc.Name, Rate: rate, Count: count, Ingest: nc.Ingest})
		}
		if isSink {
			res.Sinks = append(res.Sinks, id)
		}
	}
	// Wire edges now that all names resolve.
	for _, nc := range cfg.Nodes {
		if in != nil && !in[nc.Name] {
			continue
		}
		to := res.Names[nc.Name]
		for input, ref := range nc.Inputs {
			name, port := splitRef(ref)
			from, ok := res.Names[name]
			if !ok {
				if in != nil && all[name] {
					continue // cross-partition edge; a bridge feeds it
				}
				return nil, fmt.Errorf("node %q: unknown input %q", nc.Name, name)
			}
			g.Connect(from, port, to, input)
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

// splitRef parses "name" or "name:port".
func splitRef(ref string) (string, int) {
	for i := 0; i < len(ref); i++ {
		if ref[i] == ':' {
			port := 0
			for _, c := range ref[i+1:] {
				if c < '0' || c > '9' {
					return ref, 0
				}
				port = port*10 + int(c-'0')
			}
			return ref[:i], port
		}
	}
	return ref, 0
}

// SplitRef parses an input reference "name" or "name:port" into the
// upstream node name and output port (cluster planning needs the same
// resolution as graph building).
func SplitRef(ref string) (string, int) { return splitRef(ref) }

// FlowFor returns the effective flow limits for the named node: its own
// flow section when present, else the topology default. Nil when neither
// configures flow control.
func (cfg *Config) FlowFor(name string) *flow.Limits {
	for _, nc := range cfg.Nodes {
		if nc.Name == name {
			if nc.Flow != nil {
				return nc.Flow
			}
			break
		}
	}
	return cfg.Flow
}

// ApplyBatch overrides the hot-path batch size across the whole topology:
// on the flow default and on every per-node flow section (a node's section
// replaces the default entirely, so it must carry the batch setting too, or
// the override would silently disable batching on that node). size <= 0
// leaves the topology untouched. The streammine -batch flag calls this
// before the graph (or the cluster deployment payload) is built.
func (cfg *Config) ApplyBatch(size int) {
	if size <= 0 {
		return
	}
	if cfg.Flow == nil {
		cfg.Flow = &flow.Limits{}
	}
	cfg.Flow.BatchSize = size
	for i := range cfg.Nodes {
		if cfg.Nodes[i].Flow != nil {
			cfg.Nodes[i].Flow.BatchSize = size
		}
	}
}

// CreditWindowFor derives the per-edge credit window for the named node —
// the explicit CreditWindow when set, else the mailbox capacity split
// evenly across the node's inputs. This mirrors the rule the core engine
// applies to its local edges, so cluster bridges gating a cut edge use the
// same window the edge would have had in-process. Zero disables gating.
func (cfg *Config) CreditWindowFor(name string) int {
	f := cfg.FlowFor(name)
	if f == nil {
		return 0
	}
	if f.CreditWindow > 0 {
		return f.CreditWindow
	}
	if f.MailboxCap <= 0 {
		return 0
	}
	inputs := 0
	for _, nc := range cfg.Nodes {
		if nc.Name == name {
			inputs = len(nc.Inputs)
			break
		}
	}
	if inputs < 1 {
		return 0
	}
	w := f.MailboxCap / inputs
	if w < 1 {
		w = 1
	}
	return w
}

// makeNode translates one NodeConfig into a graph.Node.
func (cfg *Config) makeNode(nc NodeConfig) (graph.Node, bool, bool, error) {
	spec := graph.Node{
		Name:            nc.Name,
		Workers:         nc.Workers,
		CheckpointEvery: nc.Checkpoint,
		Speculative:     cfg.Speculative,
		Flow:            cfg.Flow,
	}
	if nc.Speculative != nil {
		spec.Speculative = *nc.Speculative
	}
	if nc.Flow != nil {
		spec.Flow = nc.Flow
	}
	cost := time.Duration(nc.CostMicros) * time.Microsecond
	switch nc.Type {
	case "source":
		return spec, true, false, nil
	case "sink":
		// A sink is a pass-through node the runner subscribes to.
		spec.Op = &operator.Passthrough{}
		return spec, false, true, nil
	case "union":
		spec.Op = &operator.Union{}
		spec.Traits = operator.Traits{Stateful: true, OrderSensitive: true}
		return spec, false, false, nil
	case "split":
		outs := nc.Outputs
		if outs <= 0 {
			outs = 2
		}
		spec.Op = &operator.Split{Outputs: outs, ByKey: nc.Key == "hash"}
		spec.OutputPorts = outs
		return spec, false, false, nil
	case "classifier":
		classes := nc.Classes
		if classes <= 0 {
			classes = 16
		}
		spec.Op = &operator.Classifier{Classes: classes, Cost: cost}
		spec.Traits = operator.ClassifierTraits(classes)
		return spec, false, false, nil
	case "count_window_avg":
		w := nc.Window
		if w <= 0 {
			w = 10
		}
		spec.Op = &operator.CountWindowAvg{Window: w}
		spec.Traits = operator.CountWindowTraits
		return spec, false, false, nil
	case "time_window_sum":
		w := nc.Width
		if w <= 0 {
			w = 1000
		}
		spec.Op = &operator.TimeWindowSum{Width: int64(w)}
		spec.Traits = operator.TimeWindowTraits
		return spec, false, false, nil
	case "sketch":
		depth, width := nc.Depth, nc.Width
		if depth <= 0 {
			depth = 4
		}
		if width <= 0 {
			width = 1024
		}
		spec.Op = &operator.SketchOp{Depth: depth, Width: width, Seed: cfg.Seed + 1, Cost: cost}
		spec.Traits = operator.SketchTraits(depth, width)
		return spec, false, false, nil
	case "enrich":
		spec.Op = &operator.Enrich{Cost: cost}
		spec.Traits = operator.EnrichTraits
		return spec, false, false, nil
	case "passthrough":
		spec.Op = &operator.Passthrough{Cost: cost, LogDecision: nc.LogDecision}
		return spec, false, false, nil
	case "join":
		buckets := nc.Buckets
		if buckets <= 0 {
			buckets = 256
		}
		spec.Op = &operator.Join{Buckets: buckets}
		spec.Traits = operator.JoinTraits(buckets)
		return spec, false, false, nil
	case "filter_even":
		spec.Op = &operator.Filter{Pred: func(e event.Event) bool { return e.Key%2 == 0 }}
		spec.Traits = operator.FilterTraits
		return spec, false, false, nil
	case "shedder":
		spec.Op = &operator.Shedder{DropPerMille: nc.DropPerMille}
		spec.Traits = operator.ShedderTraits
		return spec, false, false, nil
	case "pattern":
		stages := nc.Stages
		if len(stages) < 2 {
			stages = []uint64{1, 2, 3}
		}
		buckets := nc.Buckets
		if buckets <= 0 {
			buckets = 256
		}
		spec.Op = &operator.Pattern{Stages: stages, Buckets: buckets}
		spec.Traits = operator.PatternTraits(buckets)
		return spec, false, false, nil
	case "distinct_count":
		prec := nc.Precision
		if prec == 0 {
			prec = 12
		}
		spec.Op = &operator.DistinctCount{Precision: prec, Seed: cfg.Seed + 2}
		spec.Traits = operator.DistinctCountTraits(prec)
		return spec, false, false, nil
	case "dedup":
		capKeys := nc.Buckets
		if capKeys <= 0 {
			capKeys = 1024
		}
		spec.Op = &operator.Dedup{Capacity: capKeys}
		spec.Traits = operator.DedupTraits(capKeys)
		return spec, false, false, nil
	default:
		return graph.Node{}, false, false, fmt.Errorf("unknown node type %q", nc.Type)
	}
}
