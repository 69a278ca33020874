package campaign

import (
	"encoding/json"
	"fmt"
	"sort"

	"streammine/internal/flow"
	"streammine/internal/topology"
)

// workloadDef builds one workload's topology for a campaign spec and
// config. Ingest-fed workloads (gateway-driven load curves) set ingest
// and a pacing curve; the runner drives their records through the
// gateway in-process instead of a synthetic source.
type workloadDef struct {
	ingest bool
	// sinks maps the event count to the expected number of distinct
	// sink outputs (nil = one output per event). exact marks workloads
	// whose baseline must externalize exactly that many (aggregating
	// workloads only approximate it; their correctness criterion is
	// identity-set equality against the baseline instead).
	sinks func(events int) int
	exact bool
	// curve shapes the ingest offered load over the journal: given the
	// fraction done [0,1), it returns a pacing multiplier (1 = the base
	// inter-batch gap, <1 = faster, >1 = slower).
	curve func(frac float64) float64
	build func(s *Spec, cfg Config) *topology.Config
}

// workloads is the registry of pipeline shapes a campaign can name.
var workloads = map[string]workloadDef{
	// The paper's pipeline: source -> stateful classifier -> sink, cut across workers.
	"paper": {
		exact: true,
		build: func(s *Spec, cfg Config) *topology.Config {
			return baseTopo(s, cfg, []topology.NodeConfig{
				{Name: "src", Type: "source", Rate: s.Rate, Count: s.Events},
				{Name: "classify", Type: "classifier", Classes: 4, Inputs: []string{"src"}, Checkpoint: 32},
				{Name: "out", Type: "sink", Inputs: []string{"classify"}},
			}, map[string]int{"src": 0, "classify": 1, "out": 1})
		},
	},
	// Windowed aggregation: source -> count-window average -> sink.
	"window": {
		sinks: func(events int) int { return events / 16 },
		build: func(s *Spec, cfg Config) *topology.Config {
			return baseTopo(s, cfg, []topology.NodeConfig{
				{Name: "src", Type: "source", Rate: s.Rate, Count: s.Events},
				{Name: "win", Type: "count_window_avg", Window: 16, Inputs: []string{"src"}, Checkpoint: 32},
				{Name: "out", Type: "sink", Inputs: []string{"win"}},
			}, map[string]int{"src": 0, "win": 1, "out": 1})
		},
	},
	// Skewed keys: hash-split into a hot and a cold stateful branch, re-unioned.
	"skew": {
		exact: true,
		build: func(s *Spec, cfg Config) *topology.Config {
			return baseTopo(s, cfg, []topology.NodeConfig{
				{Name: "src", Type: "source", Rate: s.Rate, Count: s.Events},
				{Name: "route", Type: "split", Outputs: 2, Key: "hash", Inputs: []string{"src"}},
				{Name: "hot", Type: "classifier", Classes: 4, Inputs: []string{"route:0"}, Checkpoint: 32, CostMicros: 120},
				{Name: "cold", Type: "classifier", Classes: 4, Inputs: []string{"route:1"}, Checkpoint: 32},
				{Name: "merge", Type: "union", Inputs: []string{"hot", "cold"}},
				{Name: "out", Type: "sink", Inputs: []string{"merge"}},
			}, map[string]int{"src": 0, "route": 0, "hot": 1, "cold": 1, "merge": 1, "out": 1})
		},
	},
	// Ingest-fed bursty load: on/off cycles through the network gateway.
	"burst": {
		ingest: true,
		exact:  true,
		// Four bursts: full speed for the first 60% of each cycle, a
		// near-stall for the rest.
		curve: func(frac float64) float64 {
			cycle := frac * 4
			if cycle-float64(int(cycle)) < 0.6 {
				return 0.2
			}
			return 3
		},
		build: ingestTopo,
	},
	// Ingest-fed diurnal load: one slow sine cycle through the network gateway.
	"diurnal": {
		ingest: true,
		exact:  true,
		curve: func(frac float64) float64 {
			// One cosine valley-to-valley cycle: fastest mid-journal.
			return 2.2 - 1.8*halfSine(frac)
		},
		build: ingestTopo,
	},
}

// halfSine approximates sin(pi*x) on [0,1] without importing math for
// one call site: a parabola with the same endpoints and peak.
func halfSine(x float64) float64 { return 4 * x * (1 - x) }

func ingestTopo(s *Spec, cfg Config) *topology.Config {
	return baseTopo(s, cfg, []topology.NodeConfig{
		{Name: "src", Type: "source", Ingest: true},
		{Name: "classify", Type: "classifier", Classes: 4, Inputs: []string{"src"}, Checkpoint: 32},
		{Name: "out", Type: "sink", Inputs: []string{"classify"}},
	}, map[string]int{"src": 0, "classify": 1, "out": 1})
}

// baseTopo assembles the shared topology envelope: speculation switch,
// deterministic seed, optional flow limits, and worker placement.
func baseTopo(s *Spec, cfg Config, nodes []topology.NodeConfig, assign map[string]int) *topology.Config {
	t := &topology.Config{
		Speculative: cfg.Spec(),
		Seed:        7,
		Nodes:       nodes,
		Placement:   &topology.Placement{Workers: s.Workers, Assign: assign},
	}
	if cfg.MailboxCap > 0 {
		t.Flow = &flow.Limits{MailboxCap: cfg.MailboxCap, CreditWindow: cfg.MailboxCap}
	}
	return t
}

// KnownWorkload reports whether name is a registered workload.
func KnownWorkload(name string) bool {
	_, ok := workloads[name]
	return ok
}

// WorkloadNames lists the registered workloads, sorted.
func WorkloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// IngestWorkload reports whether the workload is gateway-fed (the
// runner drives it with network clients instead of a synthetic source).
func IngestWorkload(name string) bool { return workloads[name].ingest }

// ExpectedSinks is the number of distinct sink outputs the workload
// should externalize for the given event count; exact reports whether a
// baseline must hit it precisely (aggregating workloads only
// approximate, and are held to identity-set equality instead).
func ExpectedSinks(name string, events int) (n int, exact bool) {
	def := workloads[name]
	if def.sinks != nil {
		return def.sinks(events), def.exact
	}
	return events, def.exact
}

// Topology renders the workload's topology JSON for one cell.
func Topology(workload string, s *Spec, cfg Config) (string, error) {
	def, ok := workloads[workload]
	if !ok {
		return "", fmt.Errorf("campaign: unknown workload %q", workload)
	}
	data, err := json.MarshalIndent(def.build(s, cfg), "", "  ")
	if err != nil {
		return "", err
	}
	return string(data), nil
}
