// Package profiler implements the speculation-waste profiler: per-operator
// CPU burned in aborted attempts by cause, STM conflict witnesses drained
// from per-node ring buffers and resolved to named state buckets, and a
// space-bounded mergeable top-K conflict heatmap. The engine's own ledger
// (internal/core) supplies the counts a Summary carries beside them —
// aborts by cause, re-executions, revoked outputs and the speculation depth
// at abort. Workers ship Summary values in STATUS heartbeats; the
// coordinator merges them (docs/OBSERVABILITY.md, "Speculation-waste
// profiler").
//
// Recording paths are allocation-free: witnesses land in a fixed ring
// under a mutex, CPU charges are atomic adds. Resolution and heatmap
// maintenance happen only at Summary() time.
package profiler

import (
	"sync"
	"sync/atomic"
	"time"

	"streammine/internal/stm"
)

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

// witness kinds tracked per node (indexes into the kinds array).
const numKinds = 3

const (
	// ringSize is the per-node witness ring capacity (a power of two).
	ringSize = 1024
	// heatK bounds the conflict heatmap (top-K space-saving sketch).
	heatK = 64
)

// Profiler aggregates per-node waste ledgers and the conflict heatmap for
// one engine (one cluster partition).
type Profiler struct {
	mu       sync.Mutex
	nodes    map[string]*NodeProfile
	order    []string
	heat     *spaceSaving
	causedBy map[string]uint64
	dropped  uint64
}

// New creates a profiler.
func New() *Profiler {
	return &Profiler{
		nodes:    make(map[string]*NodeProfile),
		heat:     newSpaceSaving(heatK),
		causedBy: make(map[string]uint64),
	}
}

// Node returns (creating on first use) the profile for the named operator.
func (p *Profiler) Node(name string) *NodeProfile {
	p.mu.Lock()
	defer p.mu.Unlock()
	if np, ok := p.nodes[name]; ok {
		return np
	}
	np := &NodeProfile{name: name, ring: witnessRing{slots: make([]stm.ConflictWitness, ringSize), mask: ringSize - 1}}
	p.nodes[name] = np
	p.order = append(p.order, name)
	return np
}

// CausedBy charges n aborted attempts to the upstream source whose revoke
// (or replacement) caused them — the "who caused the conflict" side of the
// ledger. source is an operator name, or "op<id>" for remote operators the
// local topology cannot name.
func (p *Profiler) CausedBy(source string, n uint64) {
	p.mu.Lock()
	p.causedBy[source] += n
	p.mu.Unlock()
}

// NodeProfile is one operator's wasted CPU plus its witness ring. It
// implements stm.ConflictSink.
type NodeProfile struct {
	name string
	ring witnessRing

	// resolver maps an STM address to a state-bucket label. Installed by
	// the engine (state.AddrMap.Describe) and re-installed after recovery
	// memory swaps.
	resolver atomic.Value // func(stm.Addr) string

	kinds          [numKinds]atomic.Uint64
	wastedNs       [numCauses]atomic.Int64
	attemptNsTotal atomic.Int64
}

var _ stm.ConflictSink = (*NodeProfile)(nil)

// RecordConflict implements stm.ConflictSink: the witness lands in the
// fixed ring (allocation-free; oldest entries are overwritten).
func (np *NodeProfile) RecordConflict(w stm.ConflictWitness) {
	if k := int(w.Kind) - 1; k >= 0 && k < numKinds {
		np.kinds[k].Add(1)
	}
	np.ring.record(w)
}

// SetResolver installs the address-to-state-label resolver.
func (np *NodeProfile) SetResolver(fn func(stm.Addr) string) {
	np.resolver.Store(fn)
}

// AttemptCPU accounts the CPU time of one execution attempt (wasted or
// not); the denominator of the waste percentage.
func (np *NodeProfile) AttemptCPU(d time.Duration) {
	np.attemptNsTotal.Add(d.Nanoseconds())
}

// AbortedAttempt charges the CPU burned by one aborted attempt to its
// cause.
func (np *NodeProfile) AbortedAttempt(cause Cause, cpu time.Duration) {
	if cause < 0 || cause >= numCauses {
		cause = CauseError
	}
	np.wastedNs[cause].Add(cpu.Nanoseconds())
}

// Accessors (metrics CounterFuncs read these).

// WastedNs returns the wasted CPU nanoseconds for a cause.
func (np *NodeProfile) WastedNs(c Cause) int64 { return np.wastedNs[c].Load() }

// AttemptNs returns the total CPU nanoseconds across all attempts (the
// waste-percentage denominator).
func (np *NodeProfile) AttemptNs() int64 { return np.attemptNsTotal.Load() }

// Witnesses returns the witness count for an stm.ConflictKind.
func (np *NodeProfile) Witnesses(k stm.ConflictKind) uint64 {
	if i := int(k) - 1; i >= 0 && i < numKinds {
		return np.kinds[i].Load()
	}
	return 0
}

// drainInto folds the node's pending witnesses into the heatmap, resolving
// addresses to state labels. Returns the number of overwritten (lost)
// witnesses since the last drain.
func (np *NodeProfile) drainInto(heat *spaceSaving) uint64 {
	resolve, _ := np.resolver.Load().(func(stm.Addr) string)
	return np.ring.drain(func(w stm.ConflictWitness) {
		label := "unresolved"
		if resolve != nil {
			label = resolve(w.Addr)
		}
		heat.add(heatKey{node: np.name, state: label}, 1, 0)
	})
}

// snapshot renders the profile as a NodeWaste record; the engine fills in
// the counts its ledger keeps.
func (np *NodeProfile) snapshot() NodeWaste {
	nw := NodeWaste{
		Node:         np.name,
		WastedCPUNs:  make(map[string]int64),
		Witnesses:    make(map[string]uint64),
		AttemptCPUNs: np.attemptNsTotal.Load(),
	}
	for c := Cause(0); c < numCauses; c++ {
		if ns := np.wastedNs[c].Load(); ns != 0 {
			nw.WastedCPUNs[c.String()] = ns
		}
	}
	for k := stm.ConflictWriteWrite; k <= stm.ConflictCascade; k++ {
		if n := np.Witnesses(k); n != 0 {
			nw.Witnesses[k.String()] = n
		}
	}
	return nw
}

// Summary drains every node's witness ring into the heatmap and returns
// the profiler's current state as a compact, mergeable record (served at
// /debug/speculation and shipped in cluster STATUS heartbeats).
func (p *Profiler) Summary() *Summary {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := &Summary{}
	for _, name := range p.order {
		np := p.nodes[name]
		p.dropped += np.drainInto(p.heat)
		s.Nodes = append(s.Nodes, np.snapshot())
	}
	s.Heatmap = p.heat.entries()
	for src, n := range p.causedBy {
		s.CausedBy = append(s.CausedBy, CauseEntry{Source: src, Count: n})
	}
	sortCauseEntries(s.CausedBy)
	s.WitnessesDropped = p.dropped
	return s
}

// witnessRing is a fixed-capacity overwrite ring. record is allocation-
// free; drain replays everything recorded since the previous drain (or the
// last len(slots) records, whichever is fewer).
type witnessRing struct {
	mu      sync.Mutex
	slots   []stm.ConflictWitness
	mask    uint64
	next    uint64
	drained uint64
}

func (r *witnessRing) record(w stm.ConflictWitness) {
	r.mu.Lock()
	r.slots[r.next&r.mask] = w
	r.next++
	r.mu.Unlock()
}

func (r *witnessRing) drain(fn func(stm.ConflictWitness)) (dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	from := r.drained
	if r.next > uint64(len(r.slots)) && from < r.next-uint64(len(r.slots)) {
		from = r.next - uint64(len(r.slots))
		dropped = from - r.drained
	}
	for i := from; i < r.next; i++ {
		fn(r.slots[i&r.mask])
	}
	r.drained = r.next
	return dropped
}
