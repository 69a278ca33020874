// Package core implements the StreamMine speculation engine — the paper's
// primary contribution. It hosts an operator graph and executes every
// event under a speculative transaction (internal/stm), so that:
//
//   - operators may emit output events *before* their non-deterministic
//     decisions are stable on disk; such events are tagged speculative and
//     later finalized with a FINALIZE control message once the decision
//     log commits (paper §2.4, §3) — this overlaps the per-hop logging
//     latencies that a conventional engine pays serially;
//   - downstream operators process speculative events immediately inside
//     open transactions; their own outputs leave final only when nothing
//     can still change them (paper §3.1; the rule is DESIGN.md §6.1);
//   - when a speculative event is replaced after an upstream rollback,
//     only the transactions that actually read affected state are rolled
//     back and re-executed, and re-executions whose outputs are unchanged
//     do not disturb downstream at all;
//   - expensive operators are optimistically parallelized by running
//     several events' transactions concurrently (paper §4, Figures 4–7).
//
// A node configured non-speculative reproduces the baseline system the
// paper compares against: outputs are held until the decision log is
// stable and every consumed input is final.
package core

import (
	"errors"
	"fmt"
	"sync"

	"streammine/internal/checkpoint"
	"streammine/internal/detrand"
	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/profiler"
	"streammine/internal/storage"
	"streammine/internal/vclock"
	"streammine/internal/wal"
)

// Options configure an Engine.
type Options struct {
	// Pool is the stable-storage writer pool used by the decision log.
	// Required.
	Pool *storage.Pool
	// NodePools optionally gives individual nodes their own storage pool
	// (the paper's per-process setup: every operator process owns its
	// logging queues and storage points). Nodes not listed share Pool.
	NodePools map[graph.NodeID]*storage.Pool
	// Clock supplies source timestamps; defaults to a wall clock.
	Clock vclock.Clock
	// Seed derives every operator's deterministic PRNG.
	Seed uint64
	// StrictFinality is not read: the engine has one finality rule
	// (DESIGN.md §6.1). The field is still declared only because
	// bench/sink.go sets it and a change to the engine may not edit the
	// benchmark; the benchmark-only change that drops that line drops
	// the field.
	StrictFinality bool
	// CheckpointStore receives operator snapshots; defaults to an
	// in-memory store.
	CheckpointStore checkpoint.Store
	// LogScanner is the recovery read path, required for recovery: it
	// returns every stable decision record on the disks behind Pool and
	// NodePools, in any order (e.g. wal.SegmentStore.Scan over real
	// files, or wal.Scan over a MemDisk's contents). The engine keeps no
	// copy of what it logged; without a scanner Recover returns
	// ErrNoLogScanner.
	LogScanner func() ([]wal.Record, error)
	// RestoreFromStorage primes every node from durable state at Start:
	// the latest checkpoint is restored and a replay plan is built from
	// the stable decision log before any event is admitted. On an empty
	// store this is a plain start, so a cluster worker can always start
	// partitions this way — a reassigned partition resumes exactly where
	// the failed worker's durable state left off (paper §2.2), a fresh
	// one starts from scratch. LogScanner is required for it (New fails
	// without one), and it and CheckpointStore must point at storage that
	// survives the previous process.
	RestoreFromStorage bool
	// Metrics, when set, receives the engine's observability series
	// (docs/OBSERVABILITY.md lists them all). Instrumentation is
	// allocation-free on the hot path: existing atomic counters are read
	// at scrape time, and the few new measurements are atomic updates on
	// handles resolved once here. Nil disables instrumentation entirely.
	Metrics *metrics.Registry
	// Tracer, when set, records every event's lifecycle (ingress,
	// execution, speculative/final outputs, finalize/revoke, commit,
	// abort) as JSONL spans for offline latency breakdown. Tracing is
	// opt-in and does allocate; leave nil on benchmark runs.
	Tracer *metrics.Tracer
	// Health enables per-node health sampling (Engine.Health), which reads
	// each node's admission→commit latency HDR: the node's
	// core_finalize_latency series when Metrics is set, a histogram of the
	// node's own otherwise, so that unmetered cluster partition engines
	// still ship per-hop latency to the coordinator's health model.
	// Recording is lock-free and allocation-free (one HDR observe per
	// committed event).
	Health bool
	// Profile enables speculation-waste profiling (Engine.Waste): the
	// nodes' ledgers also count CPU burned in aborted attempts, attempt
	// CPU, STM conflict witnesses and the upstream operators that caused
	// aborts, and the witnesses, resolved to named state buckets, feed a
	// top-K conflict heatmap. Recording paths are allocation-free;
	// witnesses cost one nil check on STM failure paths only. Off, no
	// attempt is timed and the STM commit path is the unprofiled one.
	Profile bool
}

// Engine hosts one process's share of the operator graph.
type Engine struct {
	g     *graph.Graph
	opts  Options
	store checkpoint.Store
	tick  *vclock.Ticker

	nodes    []*node
	inflight inflight

	// met and tracer are the observability hooks; both nil when disabled
	// so hot paths pay a single pointer check.
	met    *engineMetrics
	tracer *metrics.Tracer
	// heat is the conflict heatmap Waste drains the nodes' witness rings
	// into, under heatMu; nil unless Options.Profile.
	heatMu sync.Mutex
	heat   *profiler.Heatmap

	mu      sync.Mutex
	started bool
	stopped bool
}

// Common engine errors.
var (
	// ErrStopped is returned after Stop.
	ErrStopped = errors.New("core: engine stopped")
	// ErrUnknownNode reports an out-of-range node ID.
	ErrUnknownNode = errors.New("core: unknown node")
	// ErrShed reports that admission control dropped a source event before
	// it entered the engine. The event was never logged, so recovery
	// semantics are untouched; the caller may retry, slow down, or ignore.
	ErrShed = errors.New("core: event shed by admission control")
	// ErrNoLogScanner reports a recovery attempted without
	// Options.LogScanner: the decision log is on the caller's disks, and
	// only the caller can read it back.
	ErrNoLogScanner = errors.New("core: recovery needs Options.LogScanner")
	// errInflightBelowZero fails a node that settled work never counted.
	errInflightBelowZero = errors.New("core: in-flight ledger below zero")
)

// New validates the graph and builds an engine for it.
func New(g *graph.Graph, opts Options) (*Engine, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("validate graph: %w", err)
	}
	if opts.Pool == nil {
		return nil, errors.New("core: Options.Pool is required")
	}
	if opts.RestoreFromStorage && opts.LogScanner == nil {
		return nil, fmt.Errorf("core: Options.RestoreFromStorage: %w", ErrNoLogScanner)
	}
	if opts.Clock == nil {
		opts.Clock = vclock.NewWall()
	}
	eng := &Engine{
		g:    g,
		opts: opts,
		tick: vclock.NewTicker(opts.Clock),
	}
	eng.inflight.zero.L = &eng.inflight.mu
	if opts.CheckpointStore != nil {
		eng.store = opts.CheckpointStore
	} else {
		eng.store = checkpoint.NewMemStore()
	}
	master := detrand.New(opts.Seed)
	for _, spec := range g.Nodes() {
		pool := opts.Pool
		if p, ok := opts.NodePools[spec.ID]; ok && p != nil {
			pool = p
		}
		n, err := newNode(eng, spec, inputCount(g, spec), master.Fork(), wal.New(pool))
		if err != nil {
			return nil, fmt.Errorf("node %q: %w", spec.Name, err)
		}
		if spec.Op == nil && len(g.InputsOf(spec.ID)) == 0 {
			n.source = &SourceHandle{n: n, tick: eng.tick}
		}
		eng.nodes = append(eng.nodes, n)
	}
	// Wire edges: each upstream node gets a link per outgoing edge, and
	// each downstream node learns its upstream per input (for ACKs and
	// replay requests). Edges into a flow-limited node are credit-gated:
	// the upstream link blocks (in a dedicated sender goroutine) once the
	// window of in-flight data events is exhausted, and the downstream
	// dispatcher grants credits back as events leave its mailbox.
	for _, e := range g.Edges() {
		up, down := eng.nodes[e.From], eng.nodes[e.To]
		inner := &localLink{target: down, input: e.ToInput}
		if w := creditWindow(g, down.spec); w > 0 {
			cl := newCreditedLink(up, inner, w)
			up.addLink(e.FromPort, cl)
			*slot(&down.granters, e.ToInput) = localGranter{gate: cl.gate}
			down.inGates = append(down.inGates, cl.gate)
		} else {
			up.addLink(e.FromPort, inner)
		}
		down.setUpstream(e.ToInput, localUpstream{n: up})
	}
	// Remote inputs (cluster cut edges): the credit gate lives on the
	// sending side's bridge; this side only returns credits, batched into
	// CREDIT frames on the input's upstream connection.
	for _, n := range eng.nodes {
		if w := creditWindow(g, n.spec); w > 0 {
			for _, idx := range n.spec.RemoteInputs {
				*slot(&n.granters, idx) = &remoteGranter{n: n, input: idx, batch: creditBatch(w)}
			}
		}
		n.admission.Store(flow.NewAdmission(n.spec.Flow, eng.pressureProbe(n)))
	}
	eng.tracer = opts.Tracer
	if opts.Profile {
		eng.heat = profiler.NewHeatmap()
		for _, n := range eng.nodes {
			n.wit = new(witnessRing)
			n.abortDepth = metrics.NewHDR()
			n.cCausedBy = make([]inputCause, inputCount(g, n.spec))
			n.watchMemory()
		}
	}
	if opts.Metrics != nil {
		eng.met = registerEngineMetrics(eng, opts.Metrics)
		for _, n := range eng.nodes {
			n.log.SetMetrics(eng.met.walLog)
			n.mailbox.SetQueueDelay(eng.met.mailboxWait)
		}
	}
	// Unmetered, the health sample keeps the ledger's histogram itself.
	for _, n := range eng.nodes {
		if opts.Health && n.finLat == nil {
			n.finLat = metrics.NewHDR()
		}
	}
	return eng, nil
}

// creditWindow is the credit window of each of a node's inbound edges,
// local and remote (flow.Limits.Window); zero disables credit gating.
func creditWindow(g *graph.Graph, spec graph.Node) int {
	return spec.Flow.Window(inputCount(g, spec))
}

// inputCount is the number of a node's inputs, local and remote; Validate
// has checked that they are numbered from 0 without gaps.
func inputCount(g *graph.Graph, spec graph.Node) int {
	return len(g.InputsOf(spec.ID)) + len(spec.RemoteInputs)
}

// creditBatch sizes remote CREDIT batching and caps a credited edge's
// frames: a quarter window amortizes the control frames while keeping the
// withheld remainder well below the window, so the remote sender never
// starves, and a frame never needs more credits than the window holds.
func creditBatch(window int) int {
	return max(window/4, 1)
}

// pressureProbe builds the downstream-congestion sampler driving a source
// node's AIMD admission controller: congested when any of the source's
// outputs is parked behind an exhausted credit gate, or any directly
// downstream mailbox is at least half full.
func (e *Engine) pressureProbe(n *node) func() bool {
	var downs []*node
	for _, edge := range e.g.OutputsOf(n.spec.ID) {
		downs = append(downs, e.nodes[edge.To])
	}
	return func() bool {
		if n.creditQueued() > 0 {
			return true
		}
		for _, d := range downs {
			if c := d.mailbox.DataCap(); c > 0 && d.mailbox.DataDepth()*2 >= c {
				return true
			}
		}
		return false
	}
}

// node returns the runtime for a node ID.
func (e *Engine) node(id graph.NodeID) (*node, error) {
	if int(id) < 0 || int(id) >= len(e.nodes) {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, id)
	}
	return e.nodes[id], nil
}

// Start launches every node's goroutines.
func (e *Engine) Start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return errors.New("core: already started")
	}
	e.started = true
	for _, n := range e.nodes {
		if err := n.start(); err != nil {
			return fmt.Errorf("start node %q: %w", n.spec.Name, err)
		}
	}
	if e.opts.RestoreFromStorage {
		// A restored process lost every in-memory output buffer; ask local
		// upstreams to re-send what survived (bridged upstreams replay on
		// reconnect instead).
		for _, n := range e.nodes {
			n.requestUpstreamReplay()
		}
	}
	return nil
}

// Stop shuts every node down and waits for their goroutines. It does not
// close the storage pool (the caller owns it).
func (e *Engine) Stop() {
	e.mu.Lock()
	if !e.started || e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	e.mu.Unlock()
	e.inflight.stop()
	for _, n := range e.nodes {
		n.stop()
	}
}

// Drain blocks until nothing is in flight in the engine, or until it stops:
// no frame queued or in a dispatcher's or credited link sender's hand, no
// task short of retired with its FINALIZE, late-final and ACK frames sent,
// no checkpoint mark with its ACKs unsent. Tests and benchmarks quiesce here.
func (e *Engine) Drain() { e.inflight.wait() }

// Quiesced reports without blocking what Drain waits for, that nothing is in
// flight; cluster workers report it to the coordinator's completion detector.
func (e *Engine) Quiesced() bool { return e.inflight.n.Load() <= 0 }

// Err returns the first operator or logging error any node recorded, or
// nil.
func (e *Engine) Err() error {
	for _, n := range e.nodes {
		if err := n.err(); err != nil {
			return fmt.Errorf("node %q: %w", n.spec.Name, err)
		}
	}
	return nil
}

// Subscribe attaches fn to a node's output port. fn is called once per
// output event arrival (final=false while speculative) and once more with
// final=true when the event is finalized; events arriving already final
// get a single final=true call. fn runs on the node's dispatcher goroutine
// and must be fast and non-blocking.
func (e *Engine) Subscribe(id graph.NodeID, port int, fn func(ev event.Event, final bool)) error {
	n, err := e.node(id)
	if err != nil {
		return err
	}
	n.addLink(port, &callbackLink{fn: fn})
	return nil
}

// Source returns the injector handle of a source node (one with Op == nil
// and no inputs). Events created through it are final. Every call returns
// the node's one handle, so every caller draws from one sequence and no two
// events share an ID.
func (e *Engine) Source(id graph.NodeID) (*SourceHandle, error) {
	n, err := e.node(id)
	if err != nil {
		return nil, err
	}
	if n.source == nil {
		return nil, fmt.Errorf("core: node %q is not a source", n.spec.Name)
	}
	return n.source, nil
}

// DetachSourceAdmission removes a source node's admission controller and
// hands it — together with the node's downstream-pressure probe — to the
// caller, which takes ownership of the admission decision (and of closing
// the controller). A network ingest gateway uses this to run the PR-3
// admission machinery *before* durably logging an accepted record: a shed
// record is then never logged and therefore invisible to recovery, while
// replayed re-emissions of already-logged records bypass admission
// entirely. After detaching, Emit/EmitBatch assign sequence numbers only
// to records the gateway already admitted, so event identities stay
// deterministic across gateway restarts (no sequence burn on shed).
//
// The returned controller is nil when the node's flow limits configure no
// admission control; the probe is always usable. Detach before the first
// emission — later emissions would race the ownership transfer.
func (e *Engine) DetachSourceAdmission(id graph.NodeID) (*flow.Admission, func() bool, error) {
	n, err := e.node(id)
	if err != nil {
		return nil, nil, err
	}
	if n.spec.Op != nil || len(e.g.InputsOf(id)) != 0 {
		return nil, nil, fmt.Errorf("core: node %q is not a source", n.spec.Name)
	}
	return n.admission.Swap(nil), e.pressureProbe(n), nil
}

// NodeStats aggregates one node's runtime counters.
type NodeStats struct {
	Dispatched      uint64
	Executed        uint64
	Committed       uint64
	Cancelled       uint64 // incarnations revoked or failed before commit: AbortsBy revoke + error
	Reexecuted      uint64 // re-executions after rollback
	SpecSent        uint64 // outputs first sent speculative
	FinalSent       uint64 // outputs first sent final
	Aborts          uint64 // STM aborts
	Conflicts       uint64 // STM conflicts observed
	FinalViolations uint64 // replacements of already-final outputs (DESIGN §6.1; must stay 0)

	AbortsBy      [numCauses]uint64 // aborted attempts, by profiler.Cause
	CascadeAborts uint64            // aborts whose task had live downstream outputs
	Revoked       uint64            // output records revoked downstream
}

// TotalStats sums NodeStats across the whole engine.
func (e *Engine) TotalStats() NodeStats {
	var total NodeStats
	for _, n := range e.nodes {
		s := n.stats()
		total.Dispatched += s.Dispatched
		total.Executed += s.Executed
		total.Committed += s.Committed
		total.Cancelled += s.Cancelled
		total.Reexecuted += s.Reexecuted
		total.SpecSent += s.SpecSent
		total.FinalSent += s.FinalSent
		total.Aborts += s.Aborts
		total.Conflicts += s.Conflicts
		total.FinalViolations += s.FinalViolations
		for c, v := range s.AbortsBy {
			total.AbortsBy[c] += v
		}
		total.CascadeAborts += s.CascadeAborts
		total.Revoked += s.Revoked
	}
	return total
}

// Stats returns a node's counters.
func (e *Engine) Stats(id graph.NodeID) (NodeStats, error) {
	n, err := e.node(id)
	if err != nil {
		return NodeStats{}, err
	}
	return n.stats(), nil
}

// NodePressure is one node's flow-control state snapshot: queue occupancy,
// credit accounting, speculation throttle position, and admission counters.
// Zero-valued fields mean the mechanism is not configured on the node.
type NodePressure struct {
	Node string `json:"node"`

	// Data-lane mailbox occupancy against its configured capacity.
	DataDepth     int    `json:"dataDepth"`
	DataCap       int    `json:"dataCap,omitempty"`
	DataHighWater int    `json:"dataHighWater,omitempty"`
	Overflows     uint64 `json:"overflows,omitempty"`

	// Credit state: outputs parked behind exhausted gates, and credits
	// this node's inbound edges currently hold out (events in flight).
	CreditQueued       int `json:"creditQueued,omitempty"`
	CreditsOutstanding int `json:"creditsOutstanding,omitempty"`

	// Speculation throttle position.
	ThrottleOpen int    `json:"throttleOpen,omitempty"`
	ThrottleCap  int    `json:"throttleCap,omitempty"`
	Throttled    uint64 `json:"throttled,omitempty"`

	// Source admission counters.
	Admitted  uint64  `json:"admitted,omitempty"`
	Shed      uint64  `json:"shed,omitempty"`
	AdmitRate float64 `json:"admitRate,omitempty"`
}

// pressure snapshots one node's flow-control state.
func (n *node) pressure() NodePressure {
	p := NodePressure{
		Node:          n.spec.Name,
		DataDepth:     n.mailbox.DataDepth(),
		DataCap:       n.mailbox.DataCap(),
		DataHighWater: n.mailbox.DataHighWater(),
		Overflows:     n.mailbox.Overflows(),
		CreditQueued:  n.creditQueued(),
		Admitted:      n.admission.Load().Admitted(),
		Shed:          n.admission.Load().Shedded(),
		AdmitRate:     n.admission.Load().Rate(),
	}
	for _, g := range n.inGates {
		p.CreditsOutstanding += g.Outstanding()
	}
	p.ThrottleOpen, p.ThrottleCap, p.Throttled = n.throttle.Snapshot()
	return p
}

// Pressure snapshots flow-control state for every node, in node-ID order.
// It is cheap enough to serve from a health endpoint.
func (e *Engine) Pressure() []NodePressure {
	out := make([]NodePressure, 0, len(e.nodes))
	for _, n := range e.nodes {
		out = append(out, n.pressure())
	}
	return out
}
