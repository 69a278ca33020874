package tracetool

import (
	"fmt"

	"streammine/internal/metrics"
)

// Validate checks the merged trace's structural invariants and returns
// every violation found:
//
//   - every externalized lineage must be reconstructable (Complete): its
//     ingress and ordering commit must be present somewhere in the merged
//     files — a missing piece means a process's trace was lost, not torn;
//   - no span may be attributable to a dead partition epoch: once another
//     process records epoch e' for a partition, the process that owned an
//     earlier epoch was declared dead by the failure detector, so any
//     span it stamps after the takeover is a zombie write (its engine
//     outlived its lease). Process-level records are exempt: a
//     superseded worker may still log its own stop or failure;
//   - files that ended mid-line (TornTails) are tolerated — a SIGKILL
//     tears at most the final record — but more than one torn file per
//     process crash indicates collection problems worth surfacing.
//
// A nil return means the trace is sound.
func (s *Set) Validate() []error {
	var errs []error
	for _, l := range s.Lineages() {
		if l.Has(metrics.PhaseExternalize) && !l.Complete() {
			errs = append(errs, fmt.Errorf("lineage %s: externalized but incomplete (missing ingress or commit)", l.Trace))
		}
	}
	errs = append(errs, s.validateEpochs()...)
	return errs
}

// validateEpochs flags spans written by a process after another process
// superseded its partition epoch. The coordinator only reassigns a
// partition when the owning worker is declared dead, so the superseded
// process must be silent from the successor's epoch record onward.
func (s *Set) validateEpochs() []error {
	type owner struct {
		proc string
		ep   int
		ts   int64
	}
	latest := make(map[int]owner) // partition → latest epoch record
	deadAt := make(map[string]int64)
	for _, e := range s.Epochs() {
		cur, ok := latest[e.Partition]
		if ok && e.Epoch > cur.ep && e.Proc != cur.proc {
			// cur.proc lost the partition to e.Proc: it was declared dead
			// no later than the takeover.
			if t, dead := deadAt[cur.proc]; !dead || e.TS < t {
				deadAt[cur.proc] = e.TS
			}
		}
		if !ok || e.Epoch >= cur.ep {
			latest[e.Partition] = owner{proc: e.Proc, ep: e.Epoch, ts: e.TS}
		}
	}
	var errs []error
	for _, sp := range s.Spans {
		t, dead := deadAt[sp.Proc]
		if dead && sp.TS > t && !metrics.ProcessPhase(sp.Phase) {
			errs = append(errs, fmt.Errorf("zombie span: proc %q recorded %s at %d after its epoch was superseded at %d",
				sp.Proc, sp.Phase, sp.TS, t))
		}
	}
	return errs
}
