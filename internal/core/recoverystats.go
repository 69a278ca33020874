package core

// nodeRecoveryStats is one node's restore/replay instrumentation for the
// recovery anatomy profiler, guarded by the node mutex. readDurable opens
// the restore window (checkpoint load + decision-log scan), restoreDurable
// closes it and opens the replay window; planRun closes that when the plan
// drains; the covered-set drop sites count dedup drops.
type nodeRecoveryStats struct {
	restoreStartNs int64
	restoreEndNs   int64
	ckptBytes      int64 // encoded size of the loaded checkpoint
	logRecords     int64 // this operator's decision records scanned
	coveredSet     int64 // snapshot-covered IDs whose redeliveries drop
	replayStartNs  int64
	replayEndNs    int64 // 0 while a replay plan is still draining
	replayEvents   int64 // events admitted through the plan (tail included)
	replayDrops    int64 // covered-set dedup drops
}

// RecoveryStats aggregates restore/replay instrumentation across every
// node of the engine. Zero StartNs fields mean no durable restore ran
// (fresh start). ReplayEndNs stays 0 until every node's plan drained.
type RecoveryStats struct {
	RestoreStartNs  int64
	RestoreEndNs    int64
	CheckpointBytes int64
	LogRecords      int64
	CoveredSet      int64
	ReplayStartNs   int64
	ReplayEndNs     int64
	ReplayEvents    int64
	ReplayDrops     int64
	ReplayDone      bool
	GateResets      int64
}

// RecoveryStats merges the per-node restore/replay instrumentation: the
// restore window is the envelope across nodes, sizes and counts sum, and
// replay is done only when no node still holds a plan.
func (e *Engine) RecoveryStats() RecoveryStats {
	var s RecoveryStats
	s.ReplayDone = true
	for _, n := range e.nodes {
		n.mu.Lock()
		r := n.recStats
		pending := n.replay != nil
		n.mu.Unlock()
		if r.restoreStartNs != 0 && (s.RestoreStartNs == 0 || r.restoreStartNs < s.RestoreStartNs) {
			s.RestoreStartNs = r.restoreStartNs
		}
		if r.restoreEndNs > s.RestoreEndNs {
			s.RestoreEndNs = r.restoreEndNs
		}
		s.CheckpointBytes += r.ckptBytes
		s.LogRecords += r.logRecords
		s.CoveredSet += r.coveredSet
		if r.replayStartNs != 0 && (s.ReplayStartNs == 0 || r.replayStartNs < s.ReplayStartNs) {
			s.ReplayStartNs = r.replayStartNs
		}
		s.ReplayEvents += r.replayEvents
		s.ReplayDrops += r.replayDrops
		if pending {
			s.ReplayDone = false
		} else if r.replayEndNs > s.ReplayEndNs {
			s.ReplayEndNs = r.replayEndNs
		}
		for _, g := range n.inGates {
			s.GateResets += int64(g.Resets())
		}
	}
	if !s.ReplayDone {
		s.ReplayEndNs = 0
	}
	return s
}
