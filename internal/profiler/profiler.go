// Package profiler is the speculation-waste profile's wire format and its
// fold: the Summary a profiled engine serves at /debug/speculation and
// ships in cluster STATUS heartbeats — per-operator waste read from the
// engine's node ledger (internal/core), the top-K conflict heatmap and the
// caused-by charges — and Merge, which folds the summaries of several
// partitions into one (docs/OBSERVABILITY.md, "Speculation-waste
// profiling"). It keeps no engine state: the counts live on the engine's
// nodes, and the Heatmap sketch is the engine's.
package profiler

// Cause classifies why an attempt's work was wasted. Its String is the
// cause label of core_aborts_total, of the abort trace record and of the
// NodeWaste maps.
type Cause int

// Abort causes.
const (
	CauseConflict Cause = iota
	CauseRevoke
	CauseReplace
	CauseError
	numCauses
)

var causeNames = [numCauses]string{"conflict", "revoke", "replacement", "error"}

// String returns the metric label for the cause.
func (c Cause) String() string {
	if c < 0 || c >= numCauses {
		return "unknown"
	}
	return causeNames[c]
}
