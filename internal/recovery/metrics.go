package recovery

import "streammine/internal/metrics"

// RegisterMetrics exposes the aggregator as doc-enforced recovery_*
// series (see docs/OBSERVABILITY.md). Per-phase durations feed labeled
// raw-unit HDRs (milliseconds) at incident completion; everything else
// is read lazily at exposition time.
func RegisterMetrics(a *Aggregator, reg *metrics.Registry) {
	// locked reads one of the aggregator's cumulative counters.
	locked := func(field *uint64) func() uint64 {
		return func() uint64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			return *field
		}
	}
	reg.CounterFunc("recovery_incidents_total",
		"Recovery incidents opened (coordinator-declared worker failures).",
		nil, a.IncidentsTotal)
	reg.CounterFunc("recovery_incidents_complete_total",
		"Recovery incidents that reached catch-up on every moved partition.",
		nil, locked(&a.complete))
	reg.CounterFunc("recovery_restore_bytes_total",
		"Checkpoint bytes loaded across completed recoveries.",
		nil, locked(&a.cumRestoreBytes))
	reg.CounterFunc("recovery_log_records_total",
		"Decision-log records scanned across completed recoveries.",
		nil, locked(&a.cumLogRecords))
	reg.CounterFunc("recovery_replay_events_total",
		"Events re-admitted through replay plans across completed recoveries.",
		nil, locked(&a.cumReplayEvents))
	reg.CounterFunc("recovery_replay_dedup_drops_total",
		"Covered-set duplicate drops during replay across completed recoveries.",
		nil, locked(&a.cumReplayDrops))
	reg.GaugeFunc("recovery_last_total_ms",
		"End-to-end duration of the most recent recovery incident.",
		nil, func() float64 {
			if s := a.Last(); s != nil {
				return s.TotalMs
			}
			return 0
		})
	reg.GaugeFunc("recovery_last_replay_events_per_sec",
		"Replay throughput of the most recent recovery incident.",
		nil, func() float64 {
			a.mu.Lock()
			defer a.mu.Unlock()
			if len(a.order) == 0 {
				return 0
			}
			return a.order[len(a.order)-1].view().ReplayEventsPerSec
		})

	hdrs := make(map[string]*metrics.HDR, len(Phases))
	for _, ph := range Phases {
		hdrs[ph] = reg.HDRCountsWith("recovery_phase_ms",
			"Per-phase duration distribution (milliseconds) across completed recoveries.",
			metrics.Labels{"phase": ph})
	}
	a.mu.Lock()
	a.phaseObs = func(phase string, ms float64) {
		if h := hdrs[phase]; h != nil {
			h.Observe(int64(ms))
		}
	}
	a.mu.Unlock()
}
