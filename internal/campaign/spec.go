// Package campaign is the declarative fault-recovery benchmark runner:
// a JSON campaign spec names workloads, faults and engine configs; the
// spec expands into a run matrix (workload × fault × config); each cell
// launches a real multi-process coordinator+workers cluster via
// internal/procharness, injects the declared fault at a declared
// trigger through the /debug/chaos endpoint (or a signal), and measures
// recovery time, delivery latency before/during/after the fault,
// lineage completeness from merged traces, and speculation-waste
// deltas. Results land as a benchfmt report (the schema cmd/benchjson
// gates on) plus a rendered markdown report.
//
// docs/CAMPAIGNS.md documents the spec schema, fault inventory, trigger
// semantics and report format; cmd/campaign is the entry point.
package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// Duration is a time.Duration that unmarshals from JSON strings like
// "2s" or "500ms".
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("campaign: duration must be a string like \"2s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("campaign: bad duration %q: %w", s, err)
	}
	if v < 0 {
		return fmt.Errorf("campaign: duration %q is negative", s)
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// D converts to time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// Spec is one JSON campaign description. The run matrix is the cross
// product Workloads × Faults × Configs; a fault-free baseline cell is
// always included per workload × config (added automatically when the
// fault list does not name "none") because delivery assertions and the
// during/after latency comparison are defined against it.
type Spec struct {
	// Name labels the campaign in reports and result rows.
	Name string `json:"name"`
	// Workloads names the pipeline shapes to run (see Workloads).
	Workloads []string `json:"workloads"`
	// Faults lists the faults to inject; a plain string is shorthand
	// for {"type": <string>}.
	Faults []FaultSpec `json:"faults"`
	// Configs lists engine configurations; empty runs one default
	// ("spec", speculation on).
	Configs []Config `json:"configs"`
	// Events is the per-run event count (default 1000).
	Events int `json:"events"`
	// Rate is the source publish rate in events/second (default 1500).
	Rate int `json:"rate"`
	// Workers is the cluster size per cell (default 2).
	Workers int `json:"workers"`
	// Trigger is the default fault trigger. Nil means auto: a tenth of
	// the workload's expected sink outputs externalized (sink counts, not
	// raw events — aggregating workloads emit fewer sink outputs than
	// events). A fault's own trigger overrides it.
	Trigger *Trigger `json:"trigger"`
	// Timeout bounds one cell's run (default 120s).
	Timeout Duration `json:"timeout"`
}

// Config is one engine configuration axis of the matrix.
type Config struct {
	// Name labels the config in cell names ("spec", "nospec", ...).
	Name string `json:"name"`
	// Speculative toggles speculation (default true).
	Speculative *bool `json:"speculative"`
	// Batch, when > 0, forces hot-path batching engine-wide (the
	// coordinator's -batch flag).
	Batch int `json:"batch"`
	// MailboxCap, when > 0, bounds every mailbox and credit-gates cut
	// edges with the same window (the topology flow section).
	MailboxCap int `json:"mailboxCap"`
	// MaxOpenSpec, when > 0, bounds speculation depth per node.
	MaxOpenSpec int `json:"maxOpenSpec"`
}

// Spec reports whether speculation is on under this config.
func (c Config) Spec() bool { return c.Speculative == nil || *c.Speculative }

// FaultSpec declares one fault of the matrix.
type FaultSpec struct {
	// Type is one of none, sigkill, slow_bridge, lossy_bridge,
	// slow_disk, straggler, coord_pause (see docs/CAMPAIGNS.md).
	Type string `json:"type"`
	// Target picks the victim process for targeted faults (sigkill,
	// straggler): "sink-host" (the worker externalizing sink output),
	// "gateway" (the worker hosting the ingest stream), "other" (a
	// worker that is neither), or an explicit worker name ("w1").
	// Defaults: sigkill targets sink-host (gateway on ingest-fed
	// workloads), straggler targets other.
	Target string `json:"target"`
	// Duration bounds transient faults (slow/lossy bridge, slow disk,
	// straggler, coord_pause): the fault clears this long after
	// injection (default 2s; coord_pause default 700ms).
	Duration Duration `json:"duration"`
	// Params overrides the chaos parameters the fault posts to
	// /debug/chaos (e.g. {"net_delay": "10ms"}).
	Params map[string]string `json:"params"`
	// Trigger overrides the campaign-level trigger for this fault.
	Trigger *Trigger `json:"trigger"`
}

// UnmarshalJSON accepts both the object form and a plain string
// shorthand naming the fault type.
func (f *FaultSpec) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		*f = FaultSpec{Type: s}
		return nil
	}
	type plain FaultSpec
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	*f = FaultSpec(p)
	return nil
}

// Label renders the fault for cell names: the type, plus the target
// when explicitly set.
func (f FaultSpec) Label() string {
	if f.Target != "" {
		return f.Type + "@" + f.Target
	}
	return f.Type
}

// Trigger declares when a fault fires. Exactly one field must be set.
type Trigger struct {
	// SinkEvents fires once this many distinct events externalized.
	SinkEvents int `json:"sinkEvents,omitempty"`
	// WallMs fires this many milliseconds after the cluster started.
	WallMs int `json:"wallMs,omitempty"`
	// Metric fires when a scraped metric crosses a threshold.
	Metric *MetricTrigger `json:"metric,omitempty"`
}

func (t *Trigger) String() string {
	switch {
	case t == nil:
		return "none"
	case t.SinkEvents > 0:
		return fmt.Sprintf("sinkEvents>=%d", t.SinkEvents)
	case t.WallMs > 0:
		return fmt.Sprintf("wall>=%dms", t.WallMs)
	case t.Metric != nil:
		return fmt.Sprintf("metric %s>=%g", t.Metric.Series, t.Metric.Min)
	}
	return "none"
}

func (t *Trigger) validate() error {
	if t == nil {
		return nil
	}
	set := 0
	if t.SinkEvents > 0 {
		set++
	}
	if t.WallMs > 0 {
		set++
	}
	if t.Metric != nil {
		set++
		if t.Metric.Series == "" || t.Metric.Min <= 0 {
			return fmt.Errorf("campaign: metric trigger needs a series name and a positive min")
		}
	}
	if set != 1 {
		return fmt.Errorf("campaign: trigger must set exactly one of sinkEvents, wallMs, metric")
	}
	return nil
}

// MetricTrigger fires when the named Prometheus series, summed over all
// label sets and all cluster processes' /metrics endpoints, reaches Min.
type MetricTrigger struct {
	Series string  `json:"series"`
	Min    float64 `json:"min"`
}

// FaultTypes is the injector inventory (docs/CAMPAIGNS.md).
var FaultTypes = map[string]bool{
	"none":         true,
	"sigkill":      true,
	"slow_bridge":  true,
	"lossy_bridge": true,
	"slow_disk":    true,
	"straggler":    true,
	"coord_pause":  true,
}

// Load reads and validates a campaign spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: read spec: %w", err)
	}
	return Parse(data)
}

// Parse parses and validates a campaign spec, applying defaults.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("campaign: parse spec: %w", err)
	}
	if s.Name == "" {
		return nil, fmt.Errorf("campaign: spec needs a name")
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("campaign: spec names no workloads")
	}
	for _, w := range s.Workloads {
		if !KnownWorkload(w) {
			return nil, fmt.Errorf("campaign: unknown workload %q (have %s)", w, strings.Join(WorkloadNames(), ", "))
		}
	}
	if len(s.Faults) == 0 {
		return nil, fmt.Errorf("campaign: spec names no faults")
	}
	for i, f := range s.Faults {
		if !FaultTypes[f.Type] {
			return nil, fmt.Errorf("campaign: unknown fault type %q", f.Type)
		}
		if err := f.Trigger.validate(); err != nil {
			return nil, err
		}
		if s.Faults[i].Duration == 0 {
			switch f.Type {
			case "coord_pause":
				s.Faults[i].Duration = Duration(700 * time.Millisecond)
			case "slow_bridge", "lossy_bridge", "slow_disk", "straggler":
				s.Faults[i].Duration = Duration(2 * time.Second)
			}
		}
	}
	if err := s.Trigger.validate(); err != nil {
		return nil, err
	}
	if len(s.Configs) == 0 {
		s.Configs = []Config{{Name: "spec"}}
	}
	seen := map[string]bool{}
	for _, c := range s.Configs {
		if c.Name == "" {
			return nil, fmt.Errorf("campaign: every config needs a name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("campaign: duplicate config name %q", c.Name)
		}
		seen[c.Name] = true
	}
	if s.Events <= 0 {
		s.Events = 1000
	}
	if s.Rate <= 0 {
		s.Rate = 1500
	}
	if s.Workers <= 0 {
		s.Workers = 2
	}
	if s.Timeout == 0 {
		s.Timeout = Duration(120 * time.Second)
	}
	return &s, nil
}

// Cell is one run of the matrix.
type Cell struct {
	Workload string
	Fault    FaultSpec
	Config   Config
}

// Name renders the cell identity used in result rows, directories and
// reports: workload/fault/config.
func (c Cell) Name() string {
	return c.Workload + "/" + c.Fault.Label() + "/" + c.Config.Name
}

// Baseline reports whether this is a fault-free baseline cell.
func (c Cell) Baseline() bool { return c.Fault.Type == "none" }

// BaselineKey identifies the baseline a faulted cell is compared
// against (same workload and config).
func (c Cell) BaselineKey() string { return c.Workload + "/" + c.Config.Name }

// Expand produces the run matrix. For every workload × config the
// fault-free baseline cell comes first (added when the spec does not
// list "none" itself), so the runner can assert faulted cells against
// an already-measured baseline in a single pass.
func (s *Spec) Expand() []Cell {
	faults := s.Faults
	hasNone := false
	for _, f := range faults {
		if f.Type == "none" {
			hasNone = true
		}
	}
	if !hasNone {
		faults = append([]FaultSpec{{Type: "none"}}, faults...)
	}
	var cells []Cell
	for _, w := range s.Workloads {
		for _, cfg := range s.Configs {
			// Baselines first within each workload × config group.
			for _, f := range faults {
				if f.Type == "none" {
					cells = append(cells, Cell{Workload: w, Fault: f, Config: cfg})
				}
			}
			for _, f := range faults {
				if f.Type != "none" {
					cells = append(cells, Cell{Workload: w, Fault: f, Config: cfg})
				}
			}
		}
	}
	return cells
}
