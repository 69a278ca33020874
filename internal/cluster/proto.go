// Package cluster is the coordinator/worker runtime that deploys one
// JSON topology across processes. The coordinator partitions the graph
// per the topology's placement section (or round-robin over registered
// workers), ships each partition to a worker over a small control-plane
// protocol, and wires cross-partition edges with reliable TCP bridges.
// Worker liveness is heartbeat-monitored; when a worker dies, its
// partitions are reassigned to survivors and restored from their durable
// state (decision log + checkpoints), with upstream bridges retargeted
// and replayed — the paper's precise-recovery protocol (§2.2) applied at
// deployment scale.
//
// Control messages ride the existing transport framing as JSON payloads:
//
//	REGISTER  worker → coordinator   name + data address
//	ASSIGN    coordinator → worker   partition definition (or retarget)
//	STATUS    worker → coordinator   phase, committed count, quiescence
//	START     coordinator → worker   begin running a partition
//	STOP      coordinator → worker   tear down
//	HELLO     worker → worker        routes a data connection to an edge
package cluster

import (
	"encoding/json"
	"fmt"

	"streammine/internal/transport"
)

// Edge names one cross-partition edge in global (node-name) terms.
type Edge struct {
	From     string `json:"from"`
	FromPort int    `json:"fromPort"`
	To       string `json:"to"`
	ToInput  int    `json:"toInput"`
	// PeerAddr is the data address of the worker hosting the downstream
	// end; the coordinator fills it in ASSIGN cut-out lists.
	PeerAddr string `json:"peerAddr,omitempty"`
}

// Key is the edge's routing identity on a worker's data listener.
func (e Edge) Key() string {
	return fmt.Sprintf("%s:%d->%s:%d", e.From, e.FromPort, e.To, e.ToInput)
}

// RegisterMsg announces a worker to the coordinator.
type RegisterMsg struct {
	Name string `json:"name"`
	// DataAddr is where the worker accepts bridge connections.
	DataAddr string `json:"dataAddr"`
}

// AssignMsg hands a partition to a worker. Re-sending an assignment the
// worker already runs (same partition, higher epoch) retargets its
// cut-out bridges to the new PeerAddrs instead of rebuilding.
type AssignMsg struct {
	Partition int `json:"partition"`
	// Epoch increments on every (re)assignment round, so a worker can
	// discard stale assignments.
	Epoch int `json:"epoch"`
	// Topology is the full topology JSON; the worker builds its subgraph
	// from it (BuildSubset keeps global operator identities stable).
	Topology json.RawMessage `json:"topology"`
	// Nodes lists the node names in this partition.
	Nodes []string `json:"nodes"`
	// CutIn are edges entering the partition (bridge-fed inputs).
	CutIn []Edge `json:"cutIn,omitempty"`
	// CutOut are edges leaving the partition; PeerAddr points at the
	// worker currently hosting each downstream node.
	CutOut []Edge `json:"cutOut,omitempty"`
}

// StartMsg tells a worker to run an assigned partition.
type StartMsg struct {
	Partition int `json:"partition"`
}

// Worker phases reported in StatusMsg.
const (
	PhaseReady   = "ready"   // partition built, bridges not yet attached
	PhaseRunning = "running" // engine started, sources publishing
	PhaseError   = "error"   // partition failed; Err has details
)

// StatusMsg reports one partition's state to the coordinator.
type StatusMsg struct {
	Name      string `json:"name"`
	Partition int    `json:"partition"`
	Epoch     int    `json:"epoch"`
	Phase     string `json:"phase"`
	// Committed is the partition engine's total committed-task count;
	// the coordinator's completion detector watches it for stability.
	Committed uint64 `json:"committed"`
	// Quiesced is true when the partition's sources have finished
	// publishing and the engine is idle.
	Quiesced bool   `json:"quiesced"`
	Err      string `json:"err,omitempty"`
	// Sections carries the partition's telemetry planes, one JSON body per
	// section name (the section* constants). Every body is cumulative — a
	// running total or a full snapshot — so the coordinator replaces its
	// cached copy per name on each report and never adds. A section with
	// nothing to say (profiler off, partition not running) is absent.
	Sections map[string]json.RawMessage `json:"sections,omitempty"`
	// snaps are the section snapshots a worker took under its lock;
	// sendStatus encodes them into Sections. Never on the wire.
	snaps map[string]any
}

// Names of the sections a worker ships on STATUS, with the Go type of
// each body. A plane that is also served over HTTP carries the name of
// its /debug route.
const (
	sectionPressure    = "pressure"    // []core.NodePressure, in node order
	sectionSpeculation = "speculation" // *profiler.Summary, when the worker profiles speculation
	sectionHealth      = "health"      // []core.NodeHealth
	sectionRecovery    = "recovery"    // []recovery.Span, the full span set
)

// section decodes one section body; ok is false when sections carries no
// usable body under name (an absent body does not parse either).
func section[T any](sections map[string]json.RawMessage, name string) (v T, ok bool) {
	ok = json.Unmarshal(sections[name], &v) == nil
	return v, ok
}

// StopMsg tears a worker down.
type StopMsg struct {
	Reason string `json:"reason,omitempty"`
}

// HelloMsg is the first frame on a worker-to-worker data connection; it
// routes the connection to the edge it carries.
type HelloMsg struct {
	Edge Edge `json:"edge"`
}

// encodeCtl wraps v as the payload of a control message.
func encodeCtl(t transport.MsgType, v any) (transport.Message, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return transport.Message{}, fmt.Errorf("cluster: encode %s: %w", t, err)
	}
	return transport.Message{Type: t, Payload: data}, nil
}

// decodeCtl unwraps a control message's payload into v.
func decodeCtl(m transport.Message, v any) error {
	if err := json.Unmarshal(m.Payload, v); err != nil {
		return fmt.Errorf("cluster: decode %s: %w", m.Type, err)
	}
	return nil
}
