package stm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// readEntry records how a transaction obtained the value of an address:
// either from committed memory (version = the lock entry's version at read
// time, from == nil) or speculatively from the write buffer of an open
// transaction (from != nil).
type readEntry struct {
	version uint64
	from    *Tx
}

// setInline is how many entries of each set live inside the Tx itself:
// enough for the Classifier's one read and one write and for the eight rows
// a SketchOp{Depth: 8} reads and writes.
const setInline = 8

// setEntry puts the value first: an empty one at the end of the struct
// would be padded out (a set of slots would take eight bytes an entry).
type setEntry[K comparable, V any] struct {
	val V
	key K
}

// set is an insertion-ordered map that allocates nothing while it holds at
// most setInline entries: items starts out backed by buf, inside the owning
// Tx, and append moves it to the heap once it outgrows that. A small set is
// scanned; a spilled one is indexed, so a 1000-access transaction stays
// linear in its accesses.
type set[K comparable, V any] struct {
	items []setEntry[K, V]
	index map[K]int32 // nil until items outgrows buf
	buf   [setInline]setEntry[K, V]
}

// find returns the value stored under k, or nil.
func (s *set[K, V]) find(k K) *V {
	if s.index != nil {
		if i, ok := s.index[k]; ok {
			return &s.items[i].val
		}
		return nil
	}
	for i := range s.items {
		if s.items[i].key == k {
			return &s.items[i].val
		}
	}
	return nil
}

// add appends an entry for k, which the caller knows to be absent, and
// returns where its value is stored.
func (s *set[K, V]) add(k K, v V) *V {
	s.items = append(s.items, setEntry[K, V]{v, k})
	last := len(s.items) - 1
	if s.index != nil {
		s.index[k] = int32(last)
	} else if last == setInline {
		s.index = make(map[K]int32, 4*setInline)
		for i := range s.items {
			s.index[s.items[i].key] = int32(i)
		}
	}
	return &s.items[last].val
}

// put stores v under k, replacing an earlier value.
func (s *set[K, V]) put(k K, v V) {
	if p := s.find(k); p != nil {
		*p = v
		return
	}
	s.add(k, v)
}

// drop forgets every entry, and with that any spilled storage. A set whose
// inline array holds pointers has it cleared by the caller.
func (s *set[K, V]) drop() { s.items, s.index = nil, nil }

// Tx is a transaction. A Tx is begun by Memory.Begin, on the heap, or by
// Memory.BeginAt, in storage its caller owns; it is executed by one
// goroutine (Read/Write/Complete), and may then be revalidated, committed
// or aborted by a different goroutine (the engine's commit scheduler) —
// the paper's "paused ... and later revalidated and committed by another
// thread" extension (§5).
//
// Contract: any method returning ErrConflict dooms the transaction; the
// caller must call Abort and re-execute the work in a fresh transaction.
//
// A Tx is one object wherever it lives: its sets and its dependents list
// start out in arrays inside it. Other transactions' read entries and
// dependents lists keep a *Tx past its end and read status and
// commitVersion through it, so a header is begun once and never recycled —
// storage handed to BeginAt stays that transaction's until nobody can reach
// it; what a finished transaction drops instead is every reference to
// another one (see drop; an abort keeps its read set, see finishAbort).
type Tx struct {
	mem      *Memory
	id       uint64
	ts       int64
	snapshot uint64
	status   atomic.Int32

	// mu guards writes, owned, deps, dependents and onAbort. reads is only
	// mutated by the executing goroutine while Active (validation happens
	// after the Completed transition, which synchronizes), and dropped by
	// the commit.
	// owned is the set of lock-array slots whose chain the transaction is
	// in; a slot enters it under that chain's lock.
	// deps maps each dependency to the address that created it (first
	// speculative read-from or WAW overwrite), so a cascading abort can be
	// attributed to a concrete state word. Edges that commit order and
	// cascading abort imply transitively are not registered (see join).
	// dependents starts out in depBuf and stops changing once the status
	// is Committed or Aborted. depBuf has seven entries, not eight: that
	// makes the Tx 760 bytes, which with the allocator's 8-byte header for
	// pointerful objects over 512 bytes fills the 768-byte size class; one
	// more would put it in the 896-byte class.
	mu         sync.Mutex
	reads      set[Addr, readEntry]
	writes     set[Addr, uint64]
	owned      set[uint32, struct{}]
	deps       set[*Tx, Addr]
	dependents []*Tx
	depBuf     [setInline - 1]*Tx
	onAbort    AbortHook

	commitVersion uint64
}

// statusCommitting is internal: between Completed and Committed while
// writes are being applied. It is not exposed as a Status constant because
// callers never observe it across an API boundary for long.
const statusCommitting = int32(99)

// Status returns the transaction's current lifecycle state.
func (tx *Tx) Status() Status {
	s := tx.status.Load()
	if s == statusCommitting {
		return StatusCompleted
	}
	return Status(s)
}

// AbortHook is told when a transaction aborts. It is an interface rather
// than a func so that the owner of a transaction can register itself
// without allocating a closure per transaction.
type AbortHook interface {
	TxAborted(tx *Tx)
}

// OnAbort registers the hook invoked exactly once if the transaction
// aborts (directly or by cascade). It runs on whichever goroutine triggers
// the abort and must not block.
func (tx *Tx) OnAbort(h AbortHook) {
	tx.mu.Lock()
	tx.onAbort = h
	tx.mu.Unlock()
}

// newerThan reports whether tx is "newer" (arrived later) than other:
// larger timestamp, ties broken by id.
func (tx *Tx) newerThan(other *Tx) bool {
	if tx.ts != other.ts {
		return tx.ts > other.ts
	}
	return tx.id > other.id
}

// checkRunnable returns ErrConflict if the transaction has been killed or
// aborted, ErrInvalidState if it is not executing.
func (tx *Tx) checkRunnable() error {
	switch Status(tx.status.Load()) {
	case StatusActive:
		return nil
	case StatusKilled, StatusAborted:
		return ErrConflict
	default:
		return fmt.Errorf("%w: %s", ErrInvalidState, tx.Status())
	}
}

// buffered reports whether the transaction has a buffered write for addr,
// and its value.
func (tx *Tx) buffered(addr Addr) (uint64, bool) {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if p := tx.writes.find(addr); p != nil {
		return *p, true
	}
	return 0, false
}

// addDependent registers d as depending on tx. It returns false if tx has
// already aborted (the dependency is void and d must not rely on it). A
// finished tx has dropped its list and cascades to nobody.
func (tx *Tx) addDependent(d *Tx) bool {
	tx.mu.Lock()
	st := Status(tx.status.Load())
	if st != StatusCommitted && st != StatusAborted {
		tx.dependents = append(tx.dependents, d)
	}
	tx.mu.Unlock()
	return st != StatusAborted
}

// dependOn records that tx must commit after o and abort if o aborts.
// addr is the address that created the dependency (kept for conflict
// attribution). It returns ErrConflict if o has already aborted.
func (tx *Tx) dependOn(o *Tx, addr Addr) error {
	if o == tx {
		return nil
	}
	tx.mu.Lock()
	if tx.deps.find(o) != nil {
		tx.mu.Unlock()
		return nil
	}
	tx.deps.add(o, addr)
	tx.mu.Unlock()
	if !o.addDependent(tx) {
		return ErrConflict
	}
	return nil
}

// resolve handles a conflict with another transaction that is actively
// writing to addr's lock entry: the transaction of the later event is
// killed (the paper's policy: abort the transaction of the event that
// arrived last). It returns ErrConflict if tx itself is the victim; nil if
// the other transaction was targeted (the caller retries its operation).
func (tx *Tx) resolve(other *Tx, addr Addr) error {
	tx.mem.conflicts.Add(1)
	if tx.newerThan(other) {
		if tx.mem.sink != nil {
			tx.mem.witness(ConflictWriteWrite, addr, tx, other)
		}
		return ErrConflict
	}
	if tx.mem.sink != nil {
		tx.mem.witness(ConflictWriteWrite, addr, other, tx)
	}
	other.kill()
	return nil
}

// kill dooms an Active transaction. Its goroutine observes the doom at its
// next STM call and aborts. Killing a transaction that is no longer Active
// is a no-op (the race is resolved by the caller re-reading the chain).
func (tx *Tx) kill() {
	if tx.status.CompareAndSwap(int32(StatusActive), int32(StatusKilled)) {
		tx.mem.kills.Add(1)
	}
}

// yield steps back from o, an owner a chain scan could not get past. One
// that is still executing is resolved against, so that it or tx loses; any
// other is about to leave the chain. Statuses never return to Active or
// Killed, so o was executing when the scan saw it. The caller holds no
// chain lock and scans again.
func (tx *Tx) yield(o *Tx, addr Addr) error {
	if st := Status(o.status.Load()); st == StatusActive || st == StatusKilled {
		if err := tx.resolve(o, addr); err != nil {
			return err
		}
	}
	runtime.Gosched()
	return nil
}

// Read returns the value of addr as seen by the transaction: its own
// buffered write if any, else the buffered value of the most recent open
// transaction registered as a writer of addr (a *speculative read*, which
// adds a dependency), else committed memory.
func (tx *Tx) Read(addr Addr) (uint64, error) {
	if err := tx.checkRunnable(); err != nil {
		return 0, err
	}
	if int(addr) >= len(tx.mem.data) {
		return 0, fmt.Errorf("%w: %d", ErrBadAddr, addr)
	}
	if v, ok := tx.buffered(addr); ok {
		return v, nil
	}
	for {
		if err := tx.checkRunnable(); err != nil {
			return 0, err
		}
		val, re, wait := tx.readChain(tx.mem.chainOf(addr), addr)
		if wait != nil {
			if err := tx.yield(wait, addr); err != nil {
				return 0, err
			}
			continue
		}
		// Extending the snapshot validates the read set, which locks chains:
		// it has to happen out here.
		if re.version > tx.snapshot && !tx.extendSnapshot() {
			tx.mem.conflicts.Add(1)
			return 0, ErrConflict
		}
		tx.mu.Lock()
		if re.from != nil {
			tx.reads.put(addr, re)
		} else if tx.reads.find(addr) == nil {
			tx.reads.add(addr, re)
		}
		tx.mu.Unlock()
		return val, nil
	}
}

// readChain reads addr under its chain's lock: the buffer of the newest
// open owner that is not in tx's future, else committed memory together
// with the version that goes with it (a committing owner leaves the chain
// only after it has stored its writes, and sets the version as it leaves).
// A non-nil wait is an owner that has to move first (see yield).
func (tx *Tx) readChain(c *chain, addr Addr) (val uint64, re readEntry, wait *Tx) {
	if c == nil {
		return tx.mem.data[addr].Load(), readEntry{}, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.owners) - 1; i >= 0; i-- {
		o := c.owners[i]
		// An owner that writes "in our future" must commit after us (we are
		// a re-execution of an earlier event, say): its buffer is invisible
		// to us, and so is our own slot when we do not buffer addr.
		if o == tx || o.newerThan(tx) {
			continue
		}
		st := Status(o.status.Load())
		if st == StatusAborted || st == Status(statusCommitting) {
			return 0, re, o // leaving: never read beneath a commit being applied
		}
		bv, has := o.buffered(addr)
		if !has {
			continue
		}
		// Speculative read-from: register the dependency before using the
		// value so a concurrent abort of o cascades to us.
		if st != StatusCompleted || tx.dependOn(o, addr) != nil {
			return 0, re, o
		}
		return bv, readEntry{from: o}, nil
	}
	return tx.mem.data[addr].Load(), readEntry{version: c.version}, nil
}

// Write buffers a new value for addr, registering the transaction as a
// writer in the lock array. Overwriting the buffered value of an open
// transaction is allowed and creates a dependency (paper §3).
func (tx *Tx) Write(addr Addr, v uint64) error {
	if err := tx.checkRunnable(); err != nil {
		return err
	}
	if int(addr) >= len(tx.mem.data) {
		return fmt.Errorf("%w: %d", ErrBadAddr, addr)
	}
	slot := tx.mem.slotOf(addr)
	tx.mu.Lock()
	owned := tx.owned.find(slot) != nil
	tx.mu.Unlock()
	if !owned {
		if err := tx.join(slot, addr); err != nil {
			return err
		}
	}
	tx.bufferWrite(addr, v)
	return nil
}

// join appends tx to the slot's chain once every owner in it is open.
//
// Overwriting the buffer of an older open transaction orders our commit
// after it and aborts us if it aborts (WAW dependency); a *newer* open
// owner commits after us regardless. Both relations are transitive, so the
// only edges registered are the ones nothing implies: to the older owner
// nearest to tx in timestamp order — every older owner that joined before
// that one is older than it too, and it already depends on them — and to
// the older owners that joined after it (re-executions that chained behind
// newer owners, which therefore hold no edge to them). In a chain built in
// timestamp order that is one edge, to the last owner.
func (tx *Tx) join(slot uint32, addr Addr) error {
	c := tx.mem.acquire(slot)
	for {
		if err := tx.checkRunnable(); err != nil {
			return err
		}
		c.mu.Lock()
		var wait *Tx
		n := len(c.owners)
		near := n // index of the nearest older owner
		for i, o := range c.owners {
			if st := o.status.Load(); st != int32(StatusCompleted) && st != statusCommitting {
				wait = o
				break
			}
			if !o.newerThan(tx) && (near == n || o.newerThan(c.owners[near])) {
				near = i
			}
		}
		if wait != nil {
			c.mu.Unlock()
			if err := tx.yield(wait, addr); err != nil {
				return err
			}
			continue
		}
		c.owners = append(c.owners, tx)
		tx.mu.Lock()
		tx.owned.add(slot, struct{}{})
		tx.mu.Unlock()
		var err error
		if Status(tx.status.Load()) == StatusAborted {
			// Aborted from outside since the check above (the engine does
			// that to an executing task it replaces); finishAbort may have
			// missed this slot, so leave it ourselves.
			c.remove(tx, 0)
			err = ErrConflict
		}
		for i := near; i < n && err == nil; i++ {
			if o := c.owners[i]; !o.newerThan(tx) {
				err = tx.dependOn(o, addr) // fails if o aborted under us; the cascade applies
			}
		}
		c.mu.Unlock()
		return err
	}
}

func (tx *Tx) bufferWrite(addr Addr, v uint64) {
	tx.mu.Lock()
	tx.writes.put(addr, v)
	tx.mu.Unlock()
}

// extendSnapshot revalidates all committed-memory reads and, if they are
// still current, advances the transaction's snapshot to the present clock
// (LSA-style snapshot extension, preserving opacity).
func (tx *Tx) extendSnapshot() bool {
	now := tx.mem.clock.Load()
	if !tx.validateReads() {
		return false
	}
	tx.snapshot = now
	return true
}

// validateReads checks every read entry:
//
//   - committed-memory reads: the lock entry's version is unchanged, and
//     no open transaction that must commit before us (smaller timestamp)
//     has buffered a write to the address;
//   - speculative reads: the source transaction has not aborted, and if it
//     has committed, no later commit has overwritten the entry;
//   - either kind, once there is a version to compare: no other writer of
//     the address is applying its commit right now. Its version bump is
//     certain, and two transactions whose commits overlap would otherwise
//     each validate against the entry as the other is about to leave it.
func (tx *Tx) validateReads() bool {
	// reads is only mutated by the executing goroutine while Active;
	// validation happens on that goroutine or, after the Completed
	// transition (which synchronizes), on the commit scheduler. Holding
	// tx.mu here would deadlock against o.buffered taking o.mu while o
	// validates reads against us.
	// Witnesses are only recorded at the failure returns, so the all-valid
	// path is branch-for-branch identical with profiling off and on.
	for i := range tx.reads.items {
		addr, re := tx.reads.items[i].key, tx.reads.items[i].val
		// A slot nobody ever acquired is still at version 0, where we read it.
		if c := tx.mem.chainOf(addr); c != nil {
			if by, stale := tx.staleRead(c, addr, re); stale {
				return tx.invalid(addr, by)
			}
		}
	}
	return true
}

// staleRead judges one read entry under its chain's lock and names the
// transaction that outdated it, if one is known.
func (tx *Tx) staleRead(c *chain, addr Addr, re readEntry) (by *Tx, stale bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if re.from != nil {
		switch Status(re.from.status.Load()) {
		case StatusAborted:
			return re.from, true
		case StatusCommitted:
			if c.version != re.from.commitVersion {
				return re.from, true
			}
		default:
			return nil, false // the source is still open: nothing to compare yet
		}
	} else if c.version != re.version {
		return nil, true
	}
	for _, o := range c.owners {
		// Only a writer in its commit outdates what a committed source
		// left; pass over the rest of a long chain without taking their
		// locks.
		if o == tx || re.from != nil && o.status.Load() != statusCommitting {
			continue
		}
		if _, has := o.buffered(addr); !has {
			continue
		}
		// A writer that must commit before us makes a read of committed
		// memory stale.
		st := o.status.Load() // after buffered: as late as can be
		if st == statusCommitting || re.from == nil && !o.newerThan(tx) && st != int32(StatusAborted) {
			return o, true
		}
	}
	return nil, false
}

// invalid records the validation witness, if anyone listens, and returns
// false for validateReads to pass on.
func (tx *Tx) invalid(addr Addr, owner *Tx) bool {
	if tx.mem.sink != nil {
		tx.mem.witness(ConflictValidation, addr, tx, owner)
	}
	return false
}

// Complete finishes the execution phase: it validates the read set and
// moves the transaction to the open (pre-commit) state, keeping its lock
// array entries — the paper's speculative wait state. On ErrConflict the
// caller must Abort and re-execute.
func (tx *Tx) Complete() error {
	if !tx.status.CompareAndSwap(int32(StatusActive), int32(StatusCompleted)) {
		switch Status(tx.status.Load()) {
		case StatusKilled, StatusAborted:
			return ErrConflict
		default:
			return fmt.Errorf("%w: Complete from %s", ErrInvalidState, tx.Status())
		}
	}
	if !tx.validateReads() {
		return ErrConflict
	}
	return nil
}

// Commit applies the buffered writes and releases the lock entries. The
// transaction must be Completed, all its dependencies must have committed,
// and the read set must still be valid. Commits within one Memory must be
// issued one at a time in event-timestamp order (the engine's commit
// scheduler guarantees this).
//
// Returns ErrDepsOpen if a dependency is still open (retry later) and
// ErrConflict if the transaction aborted, a dependency aborted, or
// validation failed (the caller must Abort and re-execute).
func (tx *Tx) Commit() error {
	if err := tx.commitPrepare(); err != nil {
		return err
	}
	tx.mem.commitGate.RLock()
	tx.commitApplyLocked(tx.mem.clock.Add(1))
	tx.mem.commitGate.RUnlock()
	return nil
}

// commitPrepare checks dependencies, claims the committing state and
// revalidates the read set — everything Commit does before touching the
// commit gate. On ErrConflict the transaction has been aborted.
func (tx *Tx) commitPrepare() error {
	// Check dependencies before claiming the committing state.
	tx.mu.Lock()
	for i := range tx.deps.items {
		switch Status(tx.deps.items[i].key.status.Load()) {
		case StatusCommitted:
		case StatusAborted:
			tx.mu.Unlock()
			tx.doAbort()
			return ErrConflict
		default:
			tx.mu.Unlock()
			return ErrDepsOpen
		}
	}
	tx.mu.Unlock()
	if !tx.status.CompareAndSwap(int32(StatusCompleted), statusCommitting) {
		switch Status(tx.status.Load()) {
		case StatusAborted, StatusKilled:
			return ErrConflict
		case StatusCommitted:
			return fmt.Errorf("%w: already committed", ErrInvalidState)
		default:
			return fmt.Errorf("%w: Commit from %s", ErrInvalidState, tx.Status())
		}
	}
	if !tx.validateReads() {
		tx.status.Store(int32(StatusCompleted)) // restore for doAbort bookkeeping
		tx.doAbort()
		return ErrConflict
	}
	return nil
}

// commitApplyLocked applies the buffered writes at the given commit
// version, leaves the chains, which take that version, and drops what the
// transaction held. The caller holds the commit gate (read side) and has
// successfully run commitPrepare.
func (tx *Tx) commitApplyLocked(version uint64) {
	tx.commitVersion = version
	tx.mu.Lock()
	for i := range tx.writes.items {
		tx.mem.data[tx.writes.items[i].key].Store(tx.writes.items[i].val)
	}
	owned := tx.owned.items // complete since the Completed transition
	tx.mu.Unlock()
	for i := range owned {
		tx.leave(owned[i].key, version)
	}
	tx.status.Store(int32(StatusCommitted))
	tx.mem.commits.Add(1)
	tx.drop()
}

// drop runs once the transaction is Committed and out of the lock array:
// it forgets the sets, the dependency edges in both directions and the
// abort callback, so that a committed transaction keeps no other one
// reachable (id, ts, status and commitVersion stay readable).
func (tx *Tx) drop() {
	tx.mu.Lock()
	clear(tx.reads.buf[:]) // the sources of speculative reads
	tx.reads.drop()
	tx.dropGuarded()
	tx.mu.Unlock()
}

// dropGuarded is the part of drop that mu makes safe at any time, which is
// all an abort may do: the executing goroutine can still be running. The
// caller holds mu.
func (tx *Tx) dropGuarded() {
	tx.writes.drop()
	tx.owned.drop()
	clear(tx.deps.buf[:])
	tx.deps.drop()
	clear(tx.depBuf[:])
	tx.dependents = nil
	tx.onAbort = nil
}

// leave removes tx from a slot's chain. A commit passes its version for
// the slot to take; an abort passes 0 and the slot keeps its version.
func (tx *Tx) leave(slot uint32, version uint64) {
	c := tx.mem.chainAt(slot)
	c.mu.Lock()
	c.remove(tx, version)
	c.mu.Unlock()
}

// remove takes tx out of the owners in place, if it is there. The caller
// holds c.mu.
func (c *chain) remove(tx *Tx, version uint64) {
	for i, o := range c.owners {
		if o == tx {
			last := len(c.owners) - 1
			copy(c.owners[i:], c.owners[i+1:])
			c.owners[last] = nil
			c.owners = c.owners[:last]
			if version != 0 {
				c.version = version
			}
			return
		}
	}
}

// Abort aborts the transaction, releasing its lock entries and cascading
// to every dependent transaction. It is idempotent and may be called from
// any goroutine once the executing goroutine has stopped issuing
// operations (the engine's contract after an ErrConflict).
func (tx *Tx) Abort() {
	tx.doAbort()
}

func (tx *Tx) doAbort() {
	for {
		st := tx.status.Load()
		switch st {
		case int32(StatusCommitted):
			return
		case int32(StatusAborted):
			return
		case statusCommitting:
			// A committing transaction cannot legitimately be cascade-
			// aborted (all its deps committed); wait out the transition.
			runtime.Gosched()
			continue
		}
		if tx.status.CompareAndSwap(st, int32(StatusAborted)) {
			tx.finishAbort()
			return
		}
	}
}

// finishAbort runs the post-status abort work; only the goroutine that won
// the transition to Aborted gets here. The read set is left alone: it is
// not guarded by mu, and the executing goroutine may still be validating it
// when a cascade or the engine's Abort lands here. It pins at most the
// transactions this one read from, each of which drops its own edges when
// it ends, for as long as someone still holds the aborted Tx.
func (tx *Tx) finishAbort() {
	tx.mem.aborts.Add(1)
	tx.mu.Lock()
	owned := tx.owned.items
	tx.mu.Unlock()
	for i := range owned {
		tx.leave(owned[i].key, 0)
	}
	// addDependent stopped appending when the status became Aborted, and
	// the section above ordered us after the last append: the list is
	// walked without mu, which a cascade must not run under.
	for _, d := range tx.dependents {
		d.cascadeAbort(tx)
	}
	// Only now, with the slots released, may the write buffer go: a reader
	// scans a chain under its lock and no longer finds us there.
	tx.mu.Lock()
	onAbort := tx.onAbort
	tx.dropGuarded()
	tx.mu.Unlock()
	if onAbort != nil {
		onAbort.TxAborted(tx)
	}
}

// cascadeAbort is invoked on a dependent when one of its dependencies
// (culprit) aborts. Active dependents are killed (their goroutine aborts
// at its next operation); open dependents abort immediately.
func (tx *Tx) cascadeAbort(culprit *Tx) {
	for {
		st := tx.status.Load()
		switch st {
		case int32(StatusActive):
			if tx.status.CompareAndSwap(st, int32(StatusKilled)) {
				tx.mem.kills.Add(1)
				if tx.mem.sink != nil {
					tx.witnessCascade(culprit)
				}
				return
			}
		case int32(StatusKilled), int32(StatusAborted), int32(StatusCommitted):
			return
		case int32(StatusCompleted):
			if tx.status.CompareAndSwap(st, int32(StatusAborted)) {
				if tx.mem.sink != nil {
					tx.witnessCascade(culprit)
				}
				tx.finishAbort()
				return
			}
		case statusCommitting:
			runtime.Gosched()
		}
	}
}

// witnessCascade records a cascade witness attributed to the address that
// created the dependency on culprit.
func (tx *Tx) witnessCascade(culprit *Tx) {
	var addr Addr
	tx.mu.Lock()
	if p := tx.deps.find(culprit); p != nil {
		addr = *p
	}
	tx.mu.Unlock()
	tx.mem.witness(ConflictCascade, addr, tx, culprit)
}

// ReadSetSize returns the number of distinct addresses read.
func (tx *Tx) ReadSetSize() int {
	tx.mu.Lock()
	defer tx.mu.Unlock()
	return len(tx.reads.items)
}
