package core

import (
	"streammine/internal/metrics"
	"streammine/internal/stm"
	"streammine/internal/wal"
)

// engineMetrics holds the instrumentation handles the engine's hot paths
// update directly. The struct is resolved once at Engine construction
// (when Options.Metrics is set); a nil *engineMetrics disables all of it
// behind a single pointer check, so the uninstrumented hot path pays
// nothing.
//
// What the node's ledger counts (dispatched, committed, aborts by cause,
// revocations, the finalize latency, ...) is NOT duplicated here: it is
// exported as func-backed series read at scrape time, or as the node's own
// histogram (see registerEngineMetrics), which keeps the hot path
// byte-identical to the unmetered build.
type engineMetrics struct {
	// replays counts REPLAY requests served from the output buffer;
	// replayed counts the buffered events re-sent for them.
	replays  *metrics.Counter
	replayed *metrics.Counter

	// specWindow observes first-speculative-send→finalize per output
	// record: how long downstream consumers worked on data that could
	// still have been revoked.
	specWindow *metrics.HDR
	// mailboxWait observes data-lane queueing delay (push→pop) per node
	// mailbox.
	mailboxWait *metrics.HDR
	// specDepth samples the number of open tainted (speculative) tasks
	// at each speculative send — the paper's speculation depth.
	specDepth *metrics.HDR
	// cascadeSize samples the number of live downstream outputs revoked
	// per aborted task (revoke-cascade fan-out).
	cascadeSize *metrics.HDR

	// Run accounting (see docs/PERFORMANCE.md). Every node commits in
	// groups of what is ready, and every source injects in runs — of one
	// unless EmitBatch makes them longer — so these describe every node.
	// batchOccupancy observes the run length per commit group (how full
	// groups actually get): its count is the commit turns that committed,
	// its sum the engine's committed count.
	// batchSourceBatches/batchSourceEvents account source injections.
	batchOccupancy     *metrics.HDR
	batchSourceBatches *metrics.Counter
	batchSourceEvents  *metrics.Counter

	// walLog is shared by every node's decision log.
	walLog *wal.LogMetrics
}

// registerEngineMetrics creates the engine's metric series on reg and
// returns the hot-path handles. Func-backed series capture e and read
// the live counters at scrape time; re-registering (a second engine in
// the same process, e.g. consecutive experiment runs) rebinds them to
// the newest engine while plain counters keep accumulating.
func registerEngineMetrics(e *Engine, reg *metrics.Registry) *engineMetrics {
	m := &engineMetrics{
		replays: reg.Counter("core_replay_requests_total",
			"REPLAY requests served from output buffers (recovery)."),
		replayed: reg.Counter("core_replayed_events_total",
			"Buffered output events re-sent for replay requests."),
		specWindow: reg.HDR("core_spec_window",
			"Per-output latency from first speculative send to its FINALIZE."),
		mailboxWait: reg.HDR("core_mailbox_wait",
			"Data-lane mailbox queueing delay from push to pop."),
		specDepth: reg.HDRCounts("core_spec_depth",
			"Open speculative tasks observed at each speculative send (speculation depth)."),
		cascadeSize: reg.HDRCounts("core_revoke_cascade_size",
			"Live downstream outputs revoked per aborted task (cascade fan-out)."),
		batchOccupancy: reg.HDRCounts("batch_occupancy",
			"Events per commit group (how full groups actually get)."),
		batchSourceBatches: reg.Counter("batch_source_batches_total",
			"Source injections, Emit and EmitBatch alike (one mailbox push and one downstream frame each)."),
		batchSourceEvents: reg.Counter("batch_source_events_total",
			"Source events published through those injections."),
		walLog: &wal.LogMetrics{
			AppendLatency: reg.HDR("wal_append_latency",
				"Decision-log batch latency from submission to stable notification."),
			Appends: reg.Counter("wal_appends_total", "Decision-log batches submitted."),
			Records: reg.Counter("wal_records_total", "Decision records submitted."),
			Errors:  reg.Counter("wal_append_errors_total", "Decision-log batches that failed to become stable."),
		},
	}

	stat := func(f func(NodeStats) uint64) func() uint64 {
		return func() uint64 { return f(e.TotalStats()) }
	}
	reg.CounterFunc("core_events_dispatched_total",
		"Input events admitted by dispatchers.", nil,
		stat(func(s NodeStats) uint64 { return s.Dispatched }))
	reg.CounterFunc("core_executions_total",
		"Task executions completed (first runs and re-executions).", nil,
		stat(func(s NodeStats) uint64 { return s.Executed }))
	reg.CounterFunc("core_commits_total",
		"Tasks committed in arrival order.", nil,
		stat(func(s NodeStats) uint64 { return s.Committed }))
	reg.CounterFunc("core_cancelled_total",
		"Admitted incarnations cancelled before commit (input revoked, or operator error).", nil,
		stat(func(s NodeStats) uint64 { return s.Cancelled }))
	const outputsHelp = "Outputs first sent downstream, by speculation state."
	reg.CounterFunc("core_outputs_total", outputsHelp,
		metrics.Labels{"kind": "speculative"},
		stat(func(s NodeStats) uint64 { return s.SpecSent }))
	reg.CounterFunc("core_outputs_total", outputsHelp,
		metrics.Labels{"kind": "final"},
		stat(func(s NodeStats) uint64 { return s.FinalSent }))
	reg.CounterFunc("core_final_violations_total",
		"Replacements of already-final outputs (DESIGN.md §6.1; must stay 0).", nil,
		stat(func(s NodeStats) uint64 { return s.FinalViolations }))

	// STM counters, summed across node memories. A crashed node's memory
	// is rebuilt from scratch, so these can step backwards across a
	// recovery — acceptable for debugging counters, documented in
	// docs/OBSERVABILITY.md.
	stmStat := func(f func(n *node) uint64) func() uint64 {
		return func() uint64 {
			var total uint64
			for _, n := range e.nodes {
				total += f(n)
			}
			return total
		}
	}
	reg.CounterFunc("stm_commits_total",
		"Transactions committed by the STM.", nil,
		stmStat(func(n *node) uint64 { return n.memStats().Commits }))
	reg.CounterFunc("stm_validation_failures_total",
		"Read-set validations that failed (conflicts observed).", nil,
		stmStat(func(n *node) uint64 { return n.memStats().Conflicts }))
	reg.CounterFunc("stm_retries_total",
		"Transactions aborted and handed back for another attempt.", nil,
		stmStat(func(n *node) uint64 { return n.memStats().Aborts }))
	reg.CounterFunc("stm_kills_total",
		"Transactions killed by cascading aborts of their dependencies.", nil,
		stmStat(func(n *node) uint64 { return n.memStats().Kills }))

	// Instantaneous engine state.
	reg.GaugeFunc("core_open_tasks",
		"Tasks admitted but not yet committed or cancelled.", nil,
		func() float64 {
			total := 0
			for _, n := range e.nodes {
				n.mu.Lock()
				total += n.open.n
				n.mu.Unlock()
			}
			return float64(total)
		})
	reg.GaugeFunc("core_output_buffer_events",
		"Output events retained for replay, awaiting downstream ACKs.", nil,
		func() float64 {
			total := 0
			for _, n := range e.nodes {
				total += n.outBufLen()
			}
			return float64(total)
		})
	reg.GaugeFunc("core_open_tainted",
		"Open tasks whose outputs are currently speculative.", nil,
		func() float64 {
			var total int64
			for _, n := range e.nodes {
				total += n.openTainted.Load()
			}
			return float64(total)
		})
	reg.GaugeFunc("wal_stable_lag",
		"Decision records appended but not yet stable, summed over node logs.", nil,
		func() float64 {
			var total uint64
			for _, n := range e.nodes {
				total += n.log.UnstableLag()
			}
			return float64(total)
		})

	// The node's ledger, and flow control (internal/flow): per-node queue
	// pressure, credit state, speculation throttling and source admission.
	// Registered per node so waste and congestion localize to an operator;
	// all read existing accounting at scrape time.
	for _, n := range e.nodes {
		n := n
		labels := metrics.Labels{"node": n.spec.Name}
		ledger := func(f func(NodeStats) uint64) func() uint64 {
			return func() uint64 { return f(n.ledger()) }
		}
		for c := range numCauses {
			reg.CounterFunc("core_aborts_total",
				"Task aborts by cause (conflict, revoke, replacement, error).",
				metrics.Labels{"node": n.spec.Name, "cause": c.String()},
				ledger(func(s NodeStats) uint64 { return s.AbortsBy[c] }))
		}
		reg.CounterFunc("core_cascade_aborts_total",
			"Aborts whose task had live downstream outputs (the rollback cascade grew by one hop).", labels,
			ledger(func(s NodeStats) uint64 { return s.CascadeAborts }))
		reg.CounterFunc("core_revokes_total",
			"Output records revoked downstream (rollback cascades and vanished outputs).", labels,
			ledger(func(s NodeStats) uint64 { return s.Revoked }))
		reg.CounterFunc("core_reexecutions_total",
			"Task re-executions after rollback or conflict.", labels,
			ledger(func(s NodeStats) uint64 { return s.Reexecuted }))
		n.finLat = reg.HDRWith("core_finalize_latency",
			"Per-event latency from admission at a node to its commit (per-hop commit delay).", labels)
		reg.GaugeFunc("flow_data_depth",
			"Data-lane mailbox occupancy.", labels,
			func() float64 { return float64(n.mailbox.DataDepth()) })
		reg.GaugeFunc("flow_data_high_water",
			"Peak data-lane occupancy since start or recovery.", labels,
			func() float64 { return float64(n.mailbox.DataHighWater()) })
		reg.GaugeFunc("flow_credit_queued",
			"Output events parked behind exhausted credit gates.", labels,
			func() float64 { return float64(n.creditQueued()) })
		reg.GaugeFunc("flow_credits_outstanding",
			"Credits held out by this node's inbound edges (events in flight).", labels,
			func() float64 {
				total := 0
				for _, g := range n.inGates {
					total += g.Outstanding()
				}
				return float64(total)
			})
		reg.GaugeFunc("flow_throttle_open",
			"Open speculative tasks holding throttle slots.", labels,
			func() float64 { open, _, _ := n.throttle.Snapshot(); return float64(open) })
		reg.GaugeFunc("flow_throttle_cap",
			"Current adaptive cap on open speculative tasks; 0 while the throttle is off.", labels,
			func() float64 { _, cap, _ := n.throttle.Snapshot(); return float64(cap) })
		reg.CounterFunc("flow_throttled_total",
			"Tasks held back on admission until a speculation slot was free, each counted once.", labels,
			func() uint64 { _, _, th := n.throttle.Snapshot(); return th })
		reg.CounterFunc("flow_overflow_total",
			"Data-lane pushes beyond the configured capacity (soft-bound overshoots).", labels,
			func() uint64 { return n.mailbox.Overflows() })
		reg.CounterFunc("flow_admitted_total",
			"Source events admitted by the token bucket.", labels,
			func() uint64 { return n.admission.Load().Admitted() })
		reg.CounterFunc("flow_shed_total",
			"Source events dropped by the shed policy before admission.", labels,
			func() uint64 { return n.admission.Load().Shedded() })
	}
	return m
}

// memStats reads the node's STM counters under the node lock (the
// memory object is swapped during crash recovery).
func (n *node) memStats() stm.Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mem.Stats()
}

// outBufLen reports the number of retained output records.
func (n *node) outBufLen() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.outBuf.len()
}
