// Package profiler implements the speculation-waste profiler: per-operator
// ledgers of work discarded by aborts (CPU-ns by cause, re-executions,
// revoked-output fan-out, speculative depth at abort), STM conflict
// witnesses drained from per-node ring buffers and resolved to named state
// buckets, and a space-bounded mergeable top-K conflict heatmap. Workers
// ship Summary values in STATUS heartbeats; the coordinator merges them
// (docs/OBSERVABILITY.md, "Speculation-waste profiler").
//
// Recording paths are allocation-free: witnesses land in a fixed ring
// under a mutex, ledger updates are atomic adds. Resolution and heatmap
// maintenance happen only at Summary() time.
package profiler

import (
	"sync"
	"sync/atomic"
	"time"

	"streammine/internal/stm"
)

// Cause classifies why an attempt's work was wasted. The values mirror the
// engine's abort causes (core_aborts_total labels).
type Cause int

// Abort causes.
const (
	CauseConflict Cause = iota
	CauseRevoke
	CauseReplace
	CauseError
	numCauses
)

var causeNames = [numCauses]string{"conflict", "revoke", "replace", "error"}

// String returns the metric label for the cause.
func (c Cause) String() string {
	if c < 0 || c >= numCauses {
		return "unknown"
	}
	return causeNames[c]
}

// witness kinds tracked per node (indexes into the kinds array).
const numKinds = 3

// Config sizes a Profiler.
type Config struct {
	// RingSize is the per-node witness ring capacity (rounded up to a
	// power of two). Default 1024.
	RingSize int
	// HeatK bounds the conflict heatmap (top-K space-saving sketch).
	// Default 64.
	HeatK int
}

func (c Config) withDefaults() Config {
	if c.RingSize <= 0 {
		c.RingSize = 1024
	}
	if c.HeatK <= 0 {
		c.HeatK = 64
	}
	return c
}

// Profiler aggregates per-node waste ledgers and the conflict heatmap for
// one engine (one cluster partition).
type Profiler struct {
	cfg Config

	mu       sync.Mutex
	nodes    map[string]*NodeProfile
	order    []string
	heat     *spaceSaving
	causedBy map[string]uint64
	dropped  uint64
}

// New creates a profiler.
func New(cfg Config) *Profiler {
	cfg = cfg.withDefaults()
	return &Profiler{
		cfg:      cfg,
		nodes:    make(map[string]*NodeProfile),
		heat:     newSpaceSaving(cfg.HeatK),
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
	size := 1
	for size < p.cfg.RingSize {
		size <<= 1
	}
	np := &NodeProfile{name: name, ring: witnessRing{slots: make([]stm.ConflictWitness, size), mask: uint64(size - 1)}}
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

// NodeProfile is one operator's waste ledger plus its witness ring. It
// implements stm.ConflictSink.
type NodeProfile struct {
	name string
	ring witnessRing

	// resolver maps an STM address to a state-bucket label. Installed by
	// the engine (state.AddrMap.Describe) and re-installed after recovery
	// memory swaps.
	resolver atomic.Value // func(stm.Addr) string

	kinds          [numKinds]atomic.Uint64
	attempts       [numCauses]atomic.Uint64
	wastedNs       [numCauses]atomic.Int64
	attemptNsTotal atomic.Int64
	reexecs        atomic.Uint64
	revokedOutputs atomic.Uint64
	specDepthSum   atomic.Int64
	specDepthMax   atomic.Int64
	specDepthN     atomic.Uint64
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

// AbortedAttempt charges one aborted attempt: its cause, the CPU burned by
// the attempt, and the node's speculative depth at abort time.
func (np *NodeProfile) AbortedAttempt(cause Cause, cpu time.Duration, specDepth int64) {
	if cause < 0 || cause >= numCauses {
		cause = CauseError
	}
	np.attempts[cause].Add(1)
	np.wastedNs[cause].Add(cpu.Nanoseconds())
	np.specDepthSum.Add(specDepth)
	np.specDepthN.Add(1)
	for {
		cur := np.specDepthMax.Load()
		if specDepth <= cur || np.specDepthMax.CompareAndSwap(cur, specDepth) {
			return
		}
	}
}

// Reexec counts one re-execution dispatched after an abort.
func (np *NodeProfile) Reexec() { np.reexecs.Add(1) }

// RevokedOutputs counts outputs retracted because this node's task aborted
// after speculative sends (the downstream fan-out of the waste).
func (np *NodeProfile) RevokedOutputs(n int) {
	if n > 0 {
		np.revokedOutputs.Add(uint64(n))
	}
}

// Ledger accessors (metrics CounterFuncs read these).

// AbortedAttempts returns the aborted-attempt count for a cause.
func (np *NodeProfile) AbortedAttempts(c Cause) uint64 { return np.attempts[c].Load() }

// WastedNs returns the wasted CPU nanoseconds for a cause.
func (np *NodeProfile) WastedNs(c Cause) int64 { return np.wastedNs[c].Load() }

// AttemptNs returns the total CPU nanoseconds across all attempts (the
// waste-percentage denominator).
func (np *NodeProfile) AttemptNs() int64 { return np.attemptNsTotal.Load() }

// Reexecs returns the re-execution count.
func (np *NodeProfile) Reexecs() uint64 { return np.reexecs.Load() }

// RevokedOutputCount returns the revoked-output fan-out total.
func (np *NodeProfile) RevokedOutputCount() uint64 { return np.revokedOutputs.Load() }

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

// snapshot renders the ledger as a NodeWaste record.
func (np *NodeProfile) snapshot() NodeWaste {
	nw := NodeWaste{
		Node:            np.name,
		AbortedAttempts: make(map[string]uint64),
		WastedCPUNs:     make(map[string]int64),
		Witnesses:       make(map[string]uint64),
		AttemptCPUNs:    np.attemptNsTotal.Load(),
		Reexecutions:    np.reexecs.Load(),
		RevokedOutputs:  np.revokedOutputs.Load(),
		SpecDepthSum:    np.specDepthSum.Load(),
		SpecDepthMax:    np.specDepthMax.Load(),
		SpecDepthCount:  np.specDepthN.Load(),
	}
	for c := Cause(0); c < numCauses; c++ {
		if n := np.attempts[c].Load(); n != 0 {
			nw.AbortedAttempts[c.String()] = n
		}
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
