// Package stm implements the modified word-based software transactional
// memory at the heart of the paper (§3, §5): a lock-array STM in the style
// of Felber/Fetzer/Riegel (PPoPP'08) extended with *speculation support*:
//
//   - a transaction that has finished executing but is not yet authorized
//     to commit (its logging is not stable, or it consumed speculative
//     input events) stays OPEN in a pre-commit state, keeping its entries
//     in the lock array;
//   - later transactions may read or overwrite the buffered values of an
//     open transaction, becoming *dependent* on it: they can only commit
//     after it, and if it aborts they abort too (cascading abort);
//   - commits inside one Memory are issued by the engine in event-
//     timestamp order, and a transaction can be paused, revalidated and
//     committed by a different thread than the one that executed it.
//
// The paper instruments C code at compile time (TANGER) so that raw loads
// and stores are intercepted. Here the transactional heap is explicit: a
// Memory is a flat array of 64-bit words, and operators access it only
// through Tx.Read / Tx.Write. The lock-array semantics — buffered writes,
// per-entry versioned locks, read-set validation, false conflicts on hash
// collisions — are the same (see DESIGN.md §2 for the substitution note).
package stm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Addr is the index of a word in a Memory.
type Addr uint32

// Common STM errors. ErrConflict doubles as the "you have been killed"
// signal: the transaction must be aborted and re-executed.
var (
	// ErrConflict reports that the transaction lost a conflict (or was
	// killed by a cascading abort) and must abort and re-execute.
	ErrConflict = errors.New("stm: conflict")
	// ErrDepsOpen reports that Commit was called while a dependency is
	// still open; the caller must retry once the dependency commits.
	ErrDepsOpen = errors.New("stm: dependencies still open")
	// ErrInvalidState reports an operation incompatible with the
	// transaction's current status (e.g. Write after Complete).
	ErrInvalidState = errors.New("stm: invalid transaction state")
	// ErrOutOfMemory reports that Alloc exhausted the Memory's capacity.
	ErrOutOfMemory = errors.New("stm: out of transactional memory")
	// ErrBadAddr reports an access outside the allocated range.
	ErrBadAddr = errors.New("stm: address out of range")
)

// Status is the lifecycle state of a transaction.
type Status int32

// Transaction lifecycle. Active transactions are executing; Killed ones
// are doomed but their goroutine has not yet noticed; Completed ones are
// the paper's "open" pre-commit state.
const (
	StatusActive Status = iota + 1
	StatusKilled
	StatusCompleted
	StatusCommitted
	StatusAborted
)

// String names the status for diagnostics.
func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusKilled:
		return "killed"
	case StatusCompleted:
		return "completed"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return fmt.Sprintf("status(%d)", int32(s))
	}
}

// ConflictKind classifies how a conflict witness was produced.
type ConflictKind uint8

// Witness kinds. WriteWrite witnesses come from two writers colliding on a
// lock-array entry, Validation ones from a failed read-set revalidation,
// Cascade ones from a dependency abort propagating to a dependent.
const (
	ConflictWriteWrite ConflictKind = iota + 1
	ConflictValidation
	ConflictCascade
)

// String names the kind for diagnostics and metric labels.
func (k ConflictKind) String() string {
	switch k {
	case ConflictWriteWrite:
		return "write-write"
	case ConflictValidation:
		return "validation"
	case ConflictCascade:
		return "cascade"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// ConflictWitness is one attribution record: which address conflicted and
// which transactions were involved. Victim is the transaction that dies (or
// is doomed); Owner is the surviving or causing party, zero when unknown
// (e.g. a version change observed after the writer already unchained).
type ConflictWitness struct {
	Kind     ConflictKind
	Addr     Addr
	VictimID uint64
	OwnerID  uint64
	VictimTS int64
	OwnerTS  int64
}

// ConflictSink receives conflict witnesses. Implementations must be safe
// for concurrent use and must not block or allocate: they run on STM
// conflict/abort paths (internal/profiler's ring buffer qualifies).
type ConflictSink interface {
	RecordConflict(w ConflictWitness)
}

// chain is the state of one lock-array slot: the commit version and the
// transactions registered as writers. There is one per slot, made with its
// block when a slot of the block is first acquired and changed in place
// under mu from then on — a writer joins by appending itself, a commit or
// abort leaves by removing itself, a reader looks at it under the same
// lock — so nobody ever sees a version without the owners that go with it
// or an owner list half updated. Lock order is chain.mu before Tx.mu, one
// chain at a time, and mu is never held across a cascade, an abort hook or
// a witness.
type chain struct {
	mu sync.Mutex
	// version is the commit clock value of the last committed write to any
	// address covered by this slot.
	version uint64
	// owners are the transactions currently registered as writers, in
	// acquisition order. Invariant: at most the last owner is Active; all
	// earlier owners are Completed (open). An owner sets Committed only once
	// it has left every chain it was in, and a vacated element is cleared,
	// so a chain keeps no finished transaction reachable.
	owners []*Tx
	buf    [3]*Tx // owners' first backing array: a chain is 64 bytes, one cache line
}

// blockSlots is how many consecutive slots' chains are made together: a
// Memory that is replaced while it runs (a recovered node's) is back at no
// allocation per access after a few dozen first acquisitions, not after one
// for every slot it uses.
const blockSlots = 64

// Stats are cumulative Memory counters.
type Stats struct {
	Commits   uint64
	Aborts    uint64
	Conflicts uint64
	Kills     uint64
}

// Memory is a transactional heap: a fixed-capacity array of 64-bit words
// plus the lock array that mediates transactional access. One Memory holds
// the state of one operator.
type Memory struct {
	data  []atomic.Uint64
	locks []atomic.Pointer[[blockSlots]chain] // a block is nil until one of its slots is first acquired
	mask  uint32

	clock     atomic.Uint64
	allocNext atomic.Uint64
	txSeq     atomic.Uint64

	// sink, when non-nil, receives conflict witnesses. It is consulted only
	// on conflict/abort paths, guarded by a single nil check, so profiling
	// off costs nothing on the conflict-free hot path. It must be installed
	// before the Memory is shared between goroutines.
	sink ConflictSink

	// labelSpace is an opaque attachment used by layered packages
	// (internal/state) to annotate address ranges with human-readable
	// names. The STM itself never inspects it.
	labelSpace atomic.Value

	// commitGate excludes commits (read side) from checkpoints (write
	// side) so Snapshot sees a transaction-consistent state.
	commitGate sync.RWMutex

	commits   atomic.Uint64
	aborts    atomic.Uint64
	conflicts atomic.Uint64
	kills     atomic.Uint64
}

// Option configures a Memory.
type Option func(*Memory)

// WithConflictSink installs a conflict witness sink at construction.
func WithConflictSink(s ConflictSink) Option {
	return func(m *Memory) { m.sink = s }
}

// SetConflictSink installs (or clears) the conflict witness sink. Like
// WithConflictSink it must run before the Memory is shared between
// goroutines — the engine calls it at node construction and again after a
// recovery memory swap, both single-threaded.
func (m *Memory) SetConflictSink(s ConflictSink) { m.sink = s }

// SetLabelSpace attaches an opaque per-Memory label space (see labelSpace).
func (m *Memory) SetLabelSpace(v any) { m.labelSpace.Store(v) }

// LabelSpace returns the attachment stored by SetLabelSpace, or nil.
func (m *Memory) LabelSpace() any { return m.labelSpace.Load() }

// witness emits a conflict witness. Callers guard with m.sink != nil so
// the profiling-off cost is one predictable branch on the conflict paths.
func (m *Memory) witness(kind ConflictKind, addr Addr, victim, owner *Tx) {
	w := ConflictWitness{Kind: kind, Addr: addr, VictimID: victim.id, VictimTS: victim.ts}
	if owner != nil {
		w.OwnerID = owner.id
		w.OwnerTS = owner.ts
	}
	m.sink.RecordConflict(w)
}

// NewMemory creates a heap with room for capacity words. It panics if
// capacity is not positive (construction-time misuse).
func NewMemory(capacity int, opts ...Option) *Memory {
	if capacity <= 0 {
		panic("stm: NewMemory requires positive capacity")
	}
	nLocks := 1
	for nLocks < capacity && nLocks < 1<<16 {
		nLocks <<= 1
	}
	m := &Memory{
		data:  make([]atomic.Uint64, capacity),
		locks: make([]atomic.Pointer[[blockSlots]chain], (nLocks+blockSlots-1)/blockSlots),
		mask:  uint32(nLocks - 1),
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Alloc reserves n consecutive words and returns the address of the first.
func (m *Memory) Alloc(n int) (Addr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("%w: alloc %d words", ErrBadAddr, n)
	}
	for {
		cur := m.allocNext.Load()
		if cur+uint64(n) > uint64(len(m.data)) {
			return 0, fmt.Errorf("%w: %d of %d words used, need %d more",
				ErrOutOfMemory, cur, len(m.data), n)
		}
		if m.allocNext.CompareAndSwap(cur, cur+uint64(n)) {
			return Addr(cur), nil
		}
	}
}

// Capacity returns the total number of words.
func (m *Memory) Capacity() int { return len(m.data) }

// Allocated returns the number of words handed out by Alloc.
func (m *Memory) Allocated() int { return int(m.allocNext.Load()) }

// Stats returns a snapshot of the cumulative counters.
func (m *Memory) Stats() Stats {
	return Stats{
		Commits:   m.commits.Load(),
		Aborts:    m.aborts.Load(),
		Conflicts: m.conflicts.Load(),
		Kills:     m.kills.Load(),
	}
}

// Clock returns the current commit clock.
func (m *Memory) Clock() uint64 { return m.clock.Load() }

// slotOf maps an address to its lock-array slot. Nearby addresses map to
// distinct slots; far apart addresses may collide (false conflicts, as in
// any lock-array STM).
func (m *Memory) slotOf(addr Addr) uint32 { return uint32(addr) & m.mask }

// chainAt returns the slot's chain, or nil if no transaction has acquired a
// slot of its block yet: version 0, no owners, which is also what a chain
// nobody has joined says.
func (m *Memory) chainAt(slot uint32) *chain {
	if b := m.locks[slot/blockSlots].Load(); b != nil {
		return &b[slot%blockSlots]
	}
	return nil
}

// chainOf returns the chain of addr's slot (see chainAt).
func (m *Memory) chainOf(addr Addr) *chain { return m.chainAt(m.slotOf(addr)) }

// acquire returns the slot's chain, making its block on first use.
func (m *Memory) acquire(slot uint32) *chain {
	if c := m.chainAt(slot); c != nil {
		return c
	}
	b := new([blockSlots]chain)
	for i := range b {
		b[i].owners = b[i].buf[:0]
	}
	m.locks[slot/blockSlots].CompareAndSwap(nil, b)
	return m.chainAt(slot)
}

// ReadCommitted returns the committed value of addr, outside any
// transaction. It reflects only committed state, never buffered writes.
func (m *Memory) ReadCommitted(addr Addr) (uint64, error) {
	if int(addr) >= len(m.data) {
		return 0, fmt.Errorf("%w: %d", ErrBadAddr, addr)
	}
	return m.data[addr].Load(), nil
}

// WriteDirect stores a value bypassing concurrency control. It is intended
// for single-threaded initialization and checkpoint restore only.
func (m *Memory) WriteDirect(addr Addr, v uint64) error {
	if int(addr) >= len(m.data) {
		return fmt.Errorf("%w: %d", ErrBadAddr, addr)
	}
	m.data[addr].Store(v)
	return nil
}

// Snapshot copies the committed words [0, Allocated()) while holding the
// commit gate, yielding a transaction-consistent checkpoint image.
func (m *Memory) Snapshot() []uint64 {
	m.commitGate.Lock()
	defer m.commitGate.Unlock()
	n := int(m.allocNext.Load())
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = m.data[i].Load()
	}
	return out
}

// Restore overwrites the committed state with a checkpoint image and
// resets the allocation cursor past it. It must only be called while no
// transactions are running (recovery is single-threaded).
func (m *Memory) Restore(image []uint64) error {
	if len(image) > len(m.data) {
		return fmt.Errorf("%w: image %d words, capacity %d", ErrOutOfMemory, len(image), len(m.data))
	}
	for i, v := range image {
		m.data[i].Store(v)
	}
	if uint64(len(image)) > m.allocNext.Load() {
		m.allocNext.Store(uint64(len(image)))
	}
	return nil
}

// Begin starts a transaction for an event with the given application
// timestamp. Timestamps drive conflict resolution (the transaction of the
// event that arrived last loses) and define the commit order the engine must
// follow.
func (m *Memory) Begin(ts int64) *Tx { return m.BeginAt(new(Tx), ts) }

// BeginAt is Begin into storage the caller owns — a field of whatever the
// transaction is an attempt of — and returns tx. The storage is that
// transaction's for good: others keep the pointer past its end (see Tx), so
// BeginAt panics if tx has been begun before (construction-time misuse).
func (m *Memory) BeginAt(tx *Tx, ts int64) *Tx {
	if tx.status.Load() != 0 {
		panic("stm: BeginAt requires a zero Tx")
	}
	tx.mem, tx.id, tx.ts, tx.snapshot = m, m.txSeq.Add(1), ts, m.clock.Load()
	tx.reads.items = tx.reads.buf[:0]
	tx.writes.items = tx.writes.buf[:0]
	tx.owned.items = tx.owned.buf[:0]
	tx.deps.items = tx.deps.buf[:0]
	tx.dependents = tx.depBuf[:0]
	tx.status.Store(int32(StatusActive))
	return tx
}
