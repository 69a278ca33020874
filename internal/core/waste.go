package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"streammine/internal/event"
	"streammine/internal/profiler"
	"streammine/internal/state"
	"streammine/internal/stm"
)

// numKinds sizes the ledger's conflict witnesses by stm.ConflictKind
// (write-write, validation, cascade; index kind-1).
const numKinds = int(stm.ConflictCascade)

// witnessRingSize is a profiled node's witness ring capacity.
const witnessRingSize = 1024

// witnessRing is a profiled node's fixed-capacity overwrite ring of
// conflict witnesses, under a mutex that is a leaf. record is
// allocation-free; drain replays everything recorded since the previous
// drain, or the last witnessRingSize records, whichever is fewer.
type witnessRing struct {
	mu      sync.Mutex
	slots   [witnessRingSize]stm.ConflictWitness
	next    uint64
	drained uint64
	dropped uint64 // overwritten before any drain read them
}

func (r *witnessRing) record(w stm.ConflictWitness) {
	r.mu.Lock()
	r.slots[r.next%witnessRingSize] = w
	r.next++
	r.mu.Unlock()
}

// drain hands fn what was recorded since the previous drain and returns
// how many witnesses the ring has lost to overwrites in all.
func (r *witnessRing) drain(fn func(stm.ConflictWitness)) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	from := r.drained
	if r.next-from > witnessRingSize {
		from = r.next - witnessRingSize
		r.dropped += from - r.drained
	}
	for i := from; i < r.next; i++ {
		fn(r.slots[i%witnessRingSize])
	}
	r.drained = r.next
	return r.dropped
}

// inputCause is one input's caused-by column: the aborted attempts that
// revocations and replacements from the input's upstream caused, and that
// upstream's source ID (an event's Source is the operator that made it).
type inputCause struct {
	src atomic.Uint32
	n   atomic.Uint64
}

// RecordConflict makes a profiled node its memory's stm.ConflictSink: the
// witness counts in the node's ledger by kind and lands in its ring.
func (n *node) RecordConflict(w stm.ConflictWitness) {
	if k := int(w.Kind) - 1; k >= 0 && k < numKinds {
		n.cWitnesses[k].Add(1)
	}
	n.wit.record(w)
}

// watchMemory makes a profiled node the conflict sink of its memory, at
// wiring and after recovery swaps the memory (both single-threaded with
// respect to the node's workers). It attaches the memory's address map
// before Op.Init fills it, so that Waste, which names witnesses through
// the map, never races Init to create it.
func (n *node) watchMemory() {
	if n.wit == nil {
		return
	}
	state.Names(n.mem)
	n.mem.SetConflictSink(n)
}

// causedBy charges one aborted attempt of a task on input to the upstream
// operator src, whose revocation or replacement caused it. Unprofiled, the
// node has no caused-by columns; a bridge may bind an input the graph does
// not count (Engine.BridgeIn), which has none either.
func (n *node) causedBy(input int, src event.SourceID) {
	if input >= len(n.cCausedBy) {
		return
	}
	c := &n.cCausedBy[input]
	c.src.Store(uint32(src))
	c.n.Add(1)
}

// waste reads the node's ledger as a NodeWaste.
func (n *node) waste() profiler.NodeWaste {
	l := n.ledger()
	nw := profiler.NodeWaste{
		Node:            n.spec.Name,
		AbortedAttempts: make(map[string]uint64),
		WastedCPUNs:     make(map[string]int64),
		AttemptCPUNs:    n.cAttemptNs.Load(),
		Reexecutions:    l.Reexecuted,
		RevokedOutputs:  l.Revoked,
		Witnesses:       make(map[string]uint64),
		SpecDepthSum:    n.abortDepth.Sum(),
		SpecDepthMax:    n.abortDepth.Max(),
		SpecDepthCount:  n.abortDepth.Count(),
	}
	for c, v := range l.AbortsBy {
		if v != 0 {
			nw.AbortedAttempts[profiler.Cause(c).String()] = v
		}
		if ns := n.cWastedNs[c].Load(); ns != 0 {
			nw.WastedCPUNs[profiler.Cause(c).String()] = ns
		}
	}
	for k := range n.cWitnesses {
		if v := n.cWitnesses[k].Load(); v != 0 {
			nw.Witnesses[stm.ConflictKind(k+1).String()] = v
		}
	}
	return nw
}

// Waste reads the speculation-waste profile from the nodes' ledgers as a
// mergeable summary (the /debug/speculation body), draining each node's
// witness ring into the engine's conflict heatmap on the way, or returns
// nil when profiling is off.
func (e *Engine) Waste() *profiler.Summary {
	if e.heat == nil {
		return nil
	}
	e.heatMu.Lock()
	defer e.heatMu.Unlock()
	s := &profiler.Summary{}
	caused := make(map[string]uint64)
	for _, n := range e.nodes {
		n.mu.Lock() // recovery swaps the memory, and with it the address map
		names := state.Names(n.mem)
		s.WitnessesDropped += n.wit.drain(func(w stm.ConflictWitness) {
			e.heat.Add(n.spec.Name, names.Describe(w.Addr), 1, 0)
		})
		n.mu.Unlock()
		s.Nodes = append(s.Nodes, n.waste())
		for i := range n.cCausedBy {
			c := &n.cCausedBy[i]
			if v := c.n.Load(); v != 0 {
				caused[e.opName(event.SourceID(c.src.Load()))] += v
			}
		}
	}
	s.Heatmap = e.heat.Entries()
	s.CausedBy = profiler.CauseList(caused)
	return s
}

// opName resolves an event source to an operator name hosted by this
// engine, or "op<id>" for remote operators the local topology cannot name.
func (e *Engine) opName(src event.SourceID) string {
	for _, n := range e.nodes {
		if event.SourceID(n.opID) == src {
			return n.spec.Name
		}
	}
	return fmt.Sprintf("op%d", src)
}
