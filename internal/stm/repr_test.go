package stm

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// The tests in this file pin the representation of a transaction: its size,
// what an uncontended or a chained one may allocate, that large sets stay
// linear, that a slot's chain is changed in place and never seen half
// updated, and that a finished transaction keeps no other transaction
// reachable.

// TestAllocsTxSizeClass: Begin is most of what a hop allocates, so the header
// stays in the 768-byte size class — 760 bytes plus the 8-byte header the
// allocator puts in front of a pointerful object over 512 bytes. (It was
// 1,016 bytes, class 1,024, while it carried its lock states.) An
// allocation saved is not bought back with bytes.
func TestAllocsTxSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Tx{}); size > 760 {
		t.Fatalf("sizeof(Tx) = %d, want <= 760", size)
	}
}

// warmSlots acquires the slot of every address once: a slot's chain is
// made, with its block, on a first acquisition and is not part of what a
// transaction costs.
func warmSlots(t *testing.T, m *Memory) {
	tx := m.Begin(0)
	for a := 0; a < m.Capacity(); a++ {
		mustDo(t, tx.Write(Addr(a), 0))
	}
	mustFinish(t, tx)
}

// rw reads addr and writes back one more.
func rw(t testing.TB, tx *Tx, addr Addr) {
	v, err := tx.Read(addr)
	if err != nil {
		t.Fatalf("read %d: %v", addr, err)
	}
	if err := tx.Write(addr, v+1); err != nil {
		t.Fatalf("write %d: %v", addr, err)
	}
}

// TestAllocsFreshMemory pins what a Memory costs to warm: a node gets a new
// one at every crash, so first acquisitions recur while it runs. Writing all
// 4,096 words, eight to a transaction, makes the 512 Tx, the Memory's three
// objects and one block of chains per 64 slots — not a chain per slot. (The
// slack is for the collector, which 1.5 MB a run sets going.)
func TestAllocsFreshMemory(t *testing.T) {
	const words = 4096
	allocs := testing.AllocsPerRun(5, func() {
		m := NewMemory(words)
		for a := 0; a < words; a += 8 {
			tx := m.Begin(int64(a))
			for i := 0; i < 8; i++ {
				mustDo(t, tx.Write(Addr(a+i), 1))
			}
			mustFinish(t, tx)
		}
	})
	if want := float64(words/8 + 3 + words/blockSlots + 8); allocs > want {
		t.Fatalf("warming a fresh %d-word Memory: %.0f allocs, want <= %.0f", words, allocs, want)
	}
}

func TestAllocsOneWordTx(t *testing.T) {
	m := NewMemory(64)
	warmSlots(t, m)
	ts := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		ts++
		tx := m.Begin(ts)
		rw(t, tx, Addr(ts&3))
		mustFinish(t, tx)
	})
	// The Tx.
	if allocs > 1 {
		t.Fatalf("Begin, Read, Write, Complete, Commit on one word: %.1f allocs, want <= 1", allocs)
	}
}

// TestAllocsBeginAt: a transaction begun in storage its caller owns costs
// the caller's allocation and nothing else, from Begin to Commit.
func TestAllocsBeginAt(t *testing.T) {
	const runs = 200
	m := NewMemory(64)
	warmSlots(t, m)
	owned := make([]Tx, runs+1) // AllocsPerRun adds a warm-up run
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		tx := m.BeginAt(&owned[next], int64(next))
		next++
		rw(t, tx, Addr(next&3))
		mustFinish(t, tx)
	})
	if allocs != 0 {
		t.Fatalf("BeginAt, Read, Write, Complete, Commit on one word: %.1f allocs, want 0", allocs)
	}
	if st := owned[runs].Status(); st != StatusCommitted {
		t.Fatalf("the last transaction is %s, want committed", st)
	}
}

// TestBeginAtRejectsUsedTx: a header is begun once. Its storage cannot be
// handed to BeginAt again while the transaction runs, nor after it ended —
// a reader may still hold the pointer and ask how it ended.
func TestBeginAtRejectsUsedTx(t *testing.T) {
	m := NewMemory(4)
	var open, committed, aborted Tx
	m.BeginAt(&open, 1)
	mustFinish(t, m.BeginAt(&committed, 2))
	m.BeginAt(&aborted, 3).Abort()
	for _, tx := range []*Tx{&open, &committed, &aborted, m.Begin(4)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BeginAt on a %s transaction did not panic", tx.Status())
				}
			}()
			m.BeginAt(tx, 5)
		}()
	}
	if open.ts != 1 || committed.Status() != StatusCommitted || aborted.Status() != StatusAborted {
		t.Fatalf("a refused BeginAt changed its argument: ts %d, %s, %s",
			open.ts, committed.Status(), aborted.Status())
	}
}

// TestReadEntryOutlivesOwnedTx is why owned storage is not a pool: a
// transaction that read speculatively from one begun with BeginAt keeps the
// pointer in its read entry, and once the source has aborted and its
// re-execution is open, in a header of its own, that entry still leads to
// the aborted one.
func TestReadEntryOutlivesOwnedTx(t *testing.T) {
	m := NewMemory(4)
	var owned Tx
	first := m.BeginAt(&owned, 1)
	mustDo(t, first.Write(0, 7))
	mustDo(t, first.Complete())
	reader := m.Begin(2)
	if v, err := reader.Read(0); err != nil || v != 7 {
		t.Fatalf("speculative read = %d, %v; want 7", v, err)
	}
	first.Abort()
	again := m.Begin(1)
	mustDo(t, again.Write(0, 9))
	mustDo(t, again.Complete())
	re := reader.reads.find(0)
	if re == nil || re.from != &owned || re.from.Status() != StatusAborted || again == &owned {
		t.Fatalf("read entry %+v, re-execution in %p; want a read from %p, aborted, and another header", re, again, &owned)
	}
	if err := reader.Complete(); !errors.Is(err, ErrConflict) {
		t.Fatalf("reader.Complete() = %v after its source aborted, want ErrConflict", err)
	}
	reader.Abort()
	mustDo(t, again.Commit())
}

func TestAllocsSketchShapedTx(t *testing.T) {
	const rows, width = 8, 64
	m := NewMemory(rows * width)
	warmSlots(t, m)
	ts := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		ts++
		tx := m.Begin(ts)
		cell := func(row int) Addr { return Addr(row*width + int(ts)%width) }
		for row := 0; row < rows; row++ {
			rw(t, tx, cell(row))
		}
		for row := 0; row < rows; row++ {
			if _, err := tx.Read(cell(row)); err != nil {
				t.Fatal(err)
			}
		}
		if tx.ReadSetSize() != rows || len(tx.writes.items) != rows {
			t.Fatalf("set sizes %d, %d, want %d each", tx.ReadSetSize(), len(tx.writes.items), rows)
		}
		mustFinish(t, tx)
	})
	if allocs > 1 { // the Tx
		t.Fatalf("8 rows read, written and read again: %.1f allocs, want <= 1", allocs)
	}
}

func TestAllocsCommitGroup(t *testing.T) {
	m := NewMemory(64)
	warmSlots(t, m)
	ts := int64(0)
	group := make([]*Tx, 8)
	allocs := testing.AllocsPerRun(100, func() {
		for i := range group {
			ts++
			group[i] = m.Begin(ts)
			rw(t, group[i], Addr(i))
			mustDo(t, group[i].Complete())
		}
		if n, err := m.CommitGroup(group); n != len(group) || err != nil {
			t.Fatalf("CommitGroup = %d, %v", n, err)
		}
	})
	// Eight Tx.
	if allocs > 8 {
		t.Fatalf("8 one-word transactions in one CommitGroup: %.1f allocs, want <= 8", allocs)
	}
	if v := m.data[0].Load(); v != 101 { // AllocsPerRun adds a warm-up run
		t.Fatalf("word 0 = %d after 101 groups", v)
	}
}

// TestAllocsChainedWrite: joining and leaving a chain copies nothing. With
// 64 open writers on one word, one more costs its Tx — one dependency edge,
// to the owner before it, not 65 — and the head's commit and an abort from
// the middle of the chain cost nothing. (The owners' backing array doubles
// now and then; AllocsPerRun rounds that down.)
func TestAllocsChainedWrite(t *testing.T) {
	m := NewMemory(8)
	var open []*Tx
	join := func() {
		tx := m.Begin(int64(len(open) + 1))
		rw(t, tx, 0)
		mustDo(t, tx.Complete())
		open = append(open, tx)
	}
	for len(open) < 64 {
		join()
	}
	open = append(make([]*Tx, 0, 256), open...)
	if allocs := testing.AllocsPerRun(100, join); allocs > 1 {
		t.Fatalf("Begin, Read, Write, Complete behind 64 open writers: %.1f allocs, want <= 1", allocs)
	}
	if n := len(open[len(open)-1].deps.items); n != 1 {
		t.Fatalf("the last of %d chained writers has %d dependencies, want 1", len(open), n)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		mustDo(t, open[0].Commit())
		open = open[1:]
	}); allocs != 0 {
		t.Fatalf("in-order Commit of the head of a chain: %.1f allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		open[len(open)-2].Abort() // cascades to the one behind it
		if st := open[len(open)-1].Status(); st != StatusAborted {
			t.Fatalf("dependent of an aborted writer is %v", st)
		}
		open = open[:len(open)-2]
	}); allocs != 0 {
		t.Fatalf("Abort from the middle of a chain: %.1f allocs, want 0", allocs)
	}
	for _, tx := range open {
		mustDo(t, tx.Commit())
	}
	// 21 heads committed above: AllocsPerRun adds a warm-up run.
	if v := m.data[0].Load(); v != uint64(len(open))+21 {
		t.Fatalf("word 0 = %d, want %d", v, len(open)+21)
	}
}

func TestDepsOpenZeroAlloc(t *testing.T) {
	m := NewMemory(8)
	a, b := m.Begin(1), m.Begin(2)
	mustDo(t, a.Write(0, 1))
	mustDo(t, b.Write(1, 2))
	mustDo(t, a.Complete())
	mustDo(t, b.Complete())
	tx := m.Begin(3)
	rw(t, tx, 0)
	rw(t, tx, 1)
	mustDo(t, tx.Complete())
	if err := tx.Commit(); err != ErrDepsOpen {
		t.Fatalf("Commit with two open deps = %v, want ErrDepsOpen", err)
	}
	if allocs := testing.AllocsPerRun(200, func() { _ = tx.Commit() }); allocs != 0 {
		t.Fatalf("Commit refused for open deps allocated %.1f per call, want 0", allocs)
	}
	mustDo(t, a.Commit())
	if err := tx.Commit(); err != ErrDepsOpen {
		t.Fatalf("Commit with one open dep = %v, want ErrDepsOpen", err)
	}
	mustDo(t, b.Commit())
	mustDo(t, tx.Commit())
}

// accessTime runs transactions of n read+write+read-back accesses over
// distinct words until rounds of them are done, checks every value read,
// and returns the best time per access.
func accessTime(t *testing.T, m *Memory, n, rounds int) time.Duration {
	best := time.Duration(1 << 62)
	for r := 0; r < rounds; r++ {
		base := m.data[0].Load()
		start := time.Now()
		tx := m.Begin(int64(m.clock.Load()) + 1)
		for i := 0; i < n; i++ {
			rw(t, tx, Addr(i))
		}
		for i := 0; i < n; i++ {
			if v, err := tx.Read(Addr(i)); err != nil || v != base+1 {
				t.Fatalf("n=%d: read back word %d = %d, %v, want %d", n, i, v, err, base+1)
			}
		}
		if tx.ReadSetSize() != n || len(tx.writes.items) != n {
			t.Fatalf("n=%d: set sizes %d, %d", n, tx.ReadSetSize(), len(tx.writes.items))
		}
		mustFinish(t, tx)
		if d := time.Since(start) / time.Duration(n); d < best {
			best = d
		}
	}
	for i := 0; i < n; i++ {
		if v := m.data[i].Load(); v == 0 {
			t.Fatalf("n=%d: word %d never committed", n, i)
		}
	}
	return best
}

// TestLargeTxStaysLinear is Fig. 8's shape: a transaction of 1000 accesses
// reads back every buffered value and pays per access what a small one
// does, i.e. the sets are indexed once they outgrow their inline storage.
func TestLargeTxStaysLinear(t *testing.T) {
	small := accessTime(t, NewMemory(1024), 10, 400)
	large := accessTime(t, NewMemory(1024), 1000, 20)
	t.Logf("per access: %v at 10 accesses, %v at 1000", small, large)
	if large > 2*small {
		t.Fatalf("per access %v at 1000 accesses, %v at 10: more than 2x", large, small)
	}
}

// TestChainInPlaceNeverHalfUpdated is what TestStaleLockSnapshotStaysConsistent
// was for immutable snapshots: a slot has one chain from its first
// acquisition on, joins and leaves change it in place and clear what they
// vacate, and whoever looks at it under its lock — as every reader and
// validator does — sees a version with exactly the owners that go with it.
func TestChainInPlaceNeverHalfUpdated(t *testing.T) {
	m := NewMemory(8)
	if m.chainOf(3) != nil {
		t.Fatal("slot 3 has a chain before its first acquisition")
	}
	warm := m.Begin(1)
	rw(t, warm, 3)
	mustFinish(t, warm)
	c := m.chainOf(3)
	check := func(when string, version uint64, owners ...*Tx) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		if m.chainOf(3) != c {
			t.Fatalf("%s: slot 3 changed chains", when)
		}
		if c.version != version || len(c.owners) != len(owners) {
			t.Fatalf("%s: chain = {%d %v}, want {%d %v}", when, c.version, c.owners, version, owners)
		}
		for i, o := range c.owners[:cap(c.owners)] {
			if i < len(owners) && o != owners[i] || i >= len(owners) && o != nil {
				t.Fatalf("%s: owners[%d] = %p, want %v then nil", when, i, o, owners)
			}
		}
	}
	check("after the first commit", 1)
	tx1, tx2, tx3 := m.Begin(2), m.Begin(3), m.Begin(4)
	for _, tx := range []*Tx{tx1, tx2, tx3} {
		rw(t, tx, 3)
		mustDo(t, tx.Complete())
	}
	check("three open writers", 1, tx1, tx2, tx3)
	mustDo(t, tx1.Commit())
	check("head committed", 2, tx2, tx3)
	tx2.Abort()
	check("abort cascaded", 2)
	if st := tx3.Status(); st != StatusAborted {
		t.Fatalf("tx3 = %v after its dependency aborted", st)
	}

	// Under concurrent increments an observer holding the lock never finds
	// a gap or a repeat among the owners, an owner that is past its commit,
	// one still executing anywhere but at the tail, or the version going
	// backwards.
	var stop atomic.Bool
	var ts atomic.Int64
	ts.Store(10)
	var workers, observer sync.WaitGroup
	observer.Add(1)
	go func() {
		defer observer.Done()
		var version uint64
		for !stop.Load() {
			c.mu.Lock()
			if c.version < version {
				t.Errorf("version went from %d to %d", version, c.version)
			}
			version = c.version
			for i, o := range c.owners {
				st := Status(o.status.Load())
				executing := st == StatusActive || st == StatusKilled
				if st == StatusCommitted || executing && i < len(c.owners)-1 {
					t.Errorf("owner %d of %d is %v", i, len(c.owners), st)
				}
				for _, p := range c.owners[:i] {
					if p == o {
						t.Errorf("owner %d is in the chain twice", i)
					}
				}
			}
			c.mu.Unlock()
			runtime.Gosched()
		}
	}()
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 100; i++ {
				incrementWithRetry(t, m, &ts, 3)
			}
		}()
	}
	workers.Wait()
	stop.Store(true)
	observer.Wait()
	if v := m.data[3].Load(); v != 402 {
		t.Fatalf("word 3 = %d, want 402", v)
	}
	check("at rest", c.version)
}

// TestFinishedTxRetainsNoHistory chains 200 000 transactions, each reading
// and overwriting the buffered value of its still-open predecessor, which
// commits afterwards. A committed Tx that kept its deps or its read
// entries' sources would keep the whole chain reachable.
func TestFinishedTxRetainsNoHistory(t *testing.T) {
	const n = 200_000
	m := NewMemory(8)
	heapObjects := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	prev := m.Begin(1)
	rw(t, prev, 0)
	mustDo(t, prev.Complete())
	before := heapObjects()
	for i := int64(2); i <= n; i++ {
		tx := m.Begin(i)
		rw(t, tx, 0)
		mustDo(t, tx.Complete())
		if n := len(tx.deps.items); n != 1 {
			t.Fatalf("tx %d: %d dependencies, want 1", i, n)
		}
		mustDo(t, prev.Commit())
		prev = tx
	}
	after := heapObjects()
	mustDo(t, prev.Commit())
	if v := m.data[0].Load(); v != n {
		t.Fatalf("word 0 = %d, want %d", v, n)
	}
	// At the parent commit this grew by 10 objects per transaction.
	if grown := int64(after) - int64(before); grown > 1000 {
		t.Fatalf("%d live objects more after %d chained transactions", grown, n)
	}
}

// TestValidationSeesWriterMidCommit: a transaction that has passed its
// commit-time validation and is applying its writes will bump the entry's
// version for certain, so a read of that entry — of committed memory or of
// a committed source's buffer — is already stale, whatever the writer's
// timestamp. Without this rule two transactions whose commits overlap each
// validate against the entry as it was and both commit (a lost update in
// TestConcurrentCounter as soon as its workers really run in parallel).
func TestValidationSeesWriterMidCommit(t *testing.T) {
	midCommit := func(t *testing.T, m *Memory, w *Tx) (finish func()) {
		t.Helper()
		mustDo(t, w.commitPrepare())
		return func() {
			m.commitGate.RLock()
			w.commitApplyLocked(m.clock.Add(1))
			m.commitGate.RUnlock()
		}
	}
	t.Run("committed read", func(t *testing.T) {
		m := NewMemory(4)
		newer := m.Begin(2)
		rw(t, newer, 0)
		mustDo(t, newer.Complete())
		finish := midCommit(t, m, newer)
		older := m.Begin(1)
		rw(t, older, 0) // reads beneath the newer writer, chains behind it
		if err := older.Complete(); err != ErrConflict {
			t.Fatalf("Complete beside a writer in mid-commit = %v, want ErrConflict", err)
		}
		older.Abort()
		finish()
		if v := m.data[0].Load(); v != 1 {
			t.Fatalf("word 0 = %d, want 1", v)
		}
	})
	t.Run("speculative read", func(t *testing.T) {
		m := NewMemory(4)
		src := m.Begin(10)
		rw(t, src, 0)
		mustDo(t, src.Complete())
		reader := m.Begin(11)
		if v, err := reader.Read(0); err != nil || v != 1 {
			t.Fatalf("speculative read = %d, %v", v, err)
		}
		mustDo(t, src.Commit())
		late := m.Begin(5)
		rw(t, late, 0)
		mustDo(t, late.Complete())
		finish := midCommit(t, m, late)
		if err := reader.Complete(); err != ErrConflict {
			t.Fatalf("Complete beside a writer in mid-commit = %v, want ErrConflict", err)
		}
		reader.Abort()
		finish()
		if v := m.data[0].Load(); v != 2 {
			t.Fatalf("word 0 = %d, want 2", v)
		}
	})
}
