package core

import (
	"streammine/internal/metrics"
	"streammine/internal/profiler"
	"streammine/internal/stm"
	"streammine/internal/wal"
)

// engineMetrics holds the instrumentation handles the engine's hot paths
// update directly. The struct is resolved once at Engine construction
// (when Options.Metrics is set); a nil *engineMetrics disables all of it
// behind a single pointer check, so the uninstrumented hot path pays
// nothing.
//
// Counters that already exist as per-node atomics (dispatched, executed,
// committed, STM stats, ...) are NOT duplicated here: they are exported
// as func-backed series read at scrape time (see registerEngineMetrics),
// which keeps the hot path byte-identical to the unmetered build.
type engineMetrics struct {
	// aborts by cause (core_aborts_total{cause=...}).
	abortsConflict *metrics.Counter // STM validation / conflict kill
	abortsRevoke   *metrics.Counter // upstream revoked the input event
	abortsReplace  *metrics.Counter // input replaced with different content
	abortsError    *metrics.Counter // operator or logging error

	// cascadeAborts counts aborts that propagated: the cancelled or
	// rolled-back task had already sent outputs downstream, so its
	// revocations extend the cascade by another hop.
	cascadeAborts *metrics.Counter
	// revokes counts output records revoked downstream.
	revokes *metrics.Counter

	// replays counts REPLAY requests served from the output buffer;
	// replayed counts the buffered events re-sent for them.
	replays  *metrics.Counter
	replayed *metrics.Counter

	// finalizeLat observes admission→commit per event: the time an input
	// stays speculative before its effects are final (per-hop commit
	// delay).
	finalizeLat *metrics.HDR
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
	// abortSpecDepth samples the speculation depth at each aborted
	// attempt; registered only when the waste profiler is on (nil
	// otherwise).
	abortSpecDepth *metrics.HDR

	// Run accounting (see docs/PERFORMANCE.md). Every node commits in
	// groups and every source injects in runs — of one unless flow
	// Limits.BatchSize and EmitBatch make them longer — so these describe
	// every node and batchCommitEvents equals the engine's committed count.
	// batchCommitGroups counts committer turns that committed a ready run;
	// batchCommitEvents counts the events in those runs; batchOccupancy
	// observes the run length per group (how full groups actually get).
	// batchSourceBatches/batchSourceEvents account source injections.
	batchCommitGroups  *metrics.Counter
	batchCommitEvents  *metrics.Counter
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
	const abortsHelp = "Task aborts by cause (conflict, revoke, replacement, error)."
	m := &engineMetrics{
		abortsConflict: reg.CounterWith("core_aborts_total", abortsHelp, metrics.Labels{"cause": "conflict"}),
		abortsRevoke:   reg.CounterWith("core_aborts_total", abortsHelp, metrics.Labels{"cause": "revoke"}),
		abortsReplace:  reg.CounterWith("core_aborts_total", abortsHelp, metrics.Labels{"cause": "replacement"}),
		abortsError:    reg.CounterWith("core_aborts_total", abortsHelp, metrics.Labels{"cause": "error"}),
		cascadeAborts: reg.Counter("core_cascade_aborts_total",
			"Aborts whose task had live downstream outputs (the rollback cascade grew by one hop)."),
		revokes: reg.Counter("core_revokes_total",
			"Output records revoked downstream (rollback cascades and vanished outputs)."),
		replays: reg.Counter("core_replay_requests_total",
			"REPLAY requests served from output buffers (recovery)."),
		replayed: reg.Counter("core_replayed_events_total",
			"Buffered output events re-sent for replay requests."),
		finalizeLat: reg.HDR("core_finalize_latency",
			"Per-event latency from admission at a node to its commit (per-hop commit delay)."),
		specWindow: reg.HDR("core_spec_window",
			"Per-output latency from first speculative send to its FINALIZE."),
		mailboxWait: reg.HDR("core_mailbox_wait",
			"Data-lane mailbox queueing delay from push to pop."),
		specDepth: reg.HDRCounts("core_spec_depth",
			"Open speculative tasks observed at each speculative send (speculation depth)."),
		cascadeSize: reg.HDRCounts("core_revoke_cascade_size",
			"Live downstream outputs revoked per aborted task (cascade fan-out)."),
		batchCommitGroups: reg.Counter("batch_commit_groups_total",
			"Committer turns that committed a run of ready tasks (one version-clock bump each; runs of one included)."),
		batchCommitEvents: reg.Counter("batch_commit_events_total",
			"Events committed in those groups: every commit of every node."),
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
	reg.CounterFunc("core_reexecutions_total",
		"Task re-executions after rollback or conflict.", nil,
		stat(func(s NodeStats) uint64 { return s.Reexecuted }))
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
				total += n.openCount()
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

	// Flow control (internal/flow): per-node queue pressure, credit state,
	// speculation throttling and source admission. Registered per node so
	// congestion localizes to an operator; all read existing accounting at
	// scrape time.
	for _, n := range e.nodes {
		n := n
		labels := metrics.Labels{"node": n.spec.Name}
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
			"Current adaptive cap on open speculative tasks.", labels,
			func() float64 { _, cap, _ := n.throttle.Snapshot(); return float64(cap) })
		reg.CounterFunc("flow_throttled_total",
			"Executions that had to wait for a speculation slot.", labels,
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

// registerProfilerMetrics exports the speculation-waste ledgers as
// func-backed series read at scrape time (recording stays allocation-free)
// and registers the abort-depth histogram. Called only when both
// Options.Metrics and Options.Profiler are set; the ledger itself runs
// without a registry too (cluster partition engines profile unmetered, and
// their summaries surface via STATUS heartbeats instead).
func registerProfilerMetrics(e *Engine, reg *metrics.Registry) {
	e.met.abortSpecDepth = reg.HDRCounts("profiler_abort_spec_depth",
		"Open speculative tasks observed at each aborted attempt.")
	causes := []profiler.Cause{
		profiler.CauseConflict, profiler.CauseRevoke,
		profiler.CauseReplace, profiler.CauseError,
	}
	kinds := []stm.ConflictKind{
		stm.ConflictWriteWrite, stm.ConflictValidation, stm.ConflictCascade,
	}
	for _, n := range e.nodes {
		np := n.prof
		labels := metrics.Labels{"node": n.spec.Name}
		for _, c := range causes {
			c := c
			cl := metrics.Labels{"node": n.spec.Name, "cause": c.String()}
			reg.CounterFunc("profiler_aborted_attempts_total",
				"Aborted execution attempts, by operator and abort cause.", cl,
				func() uint64 { return np.AbortedAttempts(c) })
			reg.CounterFunc("profiler_wasted_cpu_ns_total",
				"CPU nanoseconds burned in attempts that later aborted.", cl,
				func() uint64 { return uint64(np.WastedNs(c)) })
		}
		for _, k := range kinds {
			k := k
			reg.CounterFunc("profiler_conflict_witnesses_total",
				"STM conflict witnesses recorded, by operator and conflict kind.",
				metrics.Labels{"node": n.spec.Name, "kind": k.String()},
				func() uint64 { return np.Witnesses(k) })
		}
		reg.CounterFunc("profiler_attempt_cpu_ns_total",
			"CPU nanoseconds across all execution attempts (waste denominator).",
			labels, func() uint64 { return uint64(np.AttemptNs()) })
		reg.CounterFunc("profiler_reexecutions_total",
			"Re-executions dispatched after aborts.", labels,
			func() uint64 { return np.Reexecs() })
		reg.CounterFunc("profiler_revoked_outputs_total",
			"Outputs revoked downstream because their task aborted.", labels,
			func() uint64 { return np.RevokedOutputCount() })
	}
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
