package stm

import (
	"runtime"
	"testing"
	"time"
)

// The tests in this file pin the representation of a transaction: what an
// uncontended one may allocate, that large sets stay linear, that a lock
// snapshot is immutable once published, and that a finished transaction
// keeps no other transaction reachable.

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

func TestAllocsOneWordTx(t *testing.T) {
	m := NewMemory(64)
	ts := int64(0)
	allocs := testing.AllocsPerRun(200, func() {
		ts++
		tx := m.Begin(ts)
		rw(t, tx, Addr(ts&3))
		mustFinish(t, tx)
	})
	// The Tx, and the released lock state its commit leaves in the slot.
	if allocs > 2 {
		t.Fatalf("Begin, Read, Write, Complete, Commit on one word: %.1f allocs, want <= 2", allocs)
	}
}

func TestAllocsSketchShapedTx(t *testing.T) {
	const rows, width = 8, 64
	m := NewMemory(rows * width)
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
		if tx.ReadSetSize() != rows || tx.WriteSetSize() != rows {
			t.Fatalf("set sizes %d, %d, want %d each", tx.ReadSetSize(), tx.WriteSetSize(), rows)
		}
		mustFinish(t, tx)
	})
	if allocs > 3 {
		t.Fatalf("8 rows read, written and read again: %.1f allocs, want <= 3", allocs)
	}
}

func TestAllocsCommitGroup(t *testing.T) {
	m := NewMemory(64)
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
	// Eight Tx and the one released lock state they share.
	if allocs > 9 {
		t.Fatalf("8 one-word transactions in one CommitGroup: %.1f allocs, want <= 9", allocs)
	}
	if v, _ := m.ReadCommitted(0); v != 101 { // AllocsPerRun adds a warm-up run
		t.Fatalf("word 0 = %d after 101 groups", v)
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
	if n := tx.DepsOpen(); n != 2 {
		t.Fatalf("DepsOpen = %d, want 2", n)
	}
	if allocs := testing.AllocsPerRun(200, func() { tx.DepsOpen() }); allocs != 0 {
		t.Fatalf("DepsOpen allocated %.1f per call, want 0", allocs)
	}
	if err := tx.Commit(); err != ErrDepsOpen {
		t.Fatalf("Commit with open deps = %v", err)
	}
	mustDo(t, a.Commit())
	if n := tx.DepsOpen(); n != 1 {
		t.Fatalf("DepsOpen = %d after one dependency committed, want 1", n)
	}
	mustDo(t, b.Commit())
	mustDo(t, tx.Commit())
	if n := tx.DepsOpen(); n != 0 {
		t.Fatalf("DepsOpen = %d after commit", n)
	}
}

// accessTime runs transactions of n read+write+read-back accesses over
// distinct words until rounds of them are done, checks every value read,
// and returns the best time per access.
func accessTime(t *testing.T, m *Memory, n, rounds int) time.Duration {
	best := time.Duration(1 << 62)
	for r := 0; r < rounds; r++ {
		base, err := m.ReadCommitted(0)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		tx := m.Begin(int64(m.Clock()) + 1)
		for i := 0; i < n; i++ {
			rw(t, tx, Addr(i))
		}
		for i := 0; i < n; i++ {
			if v, err := tx.Read(Addr(i)); err != nil || v != base+1 {
				t.Fatalf("n=%d: read back word %d = %d, %v, want %d", n, i, v, err, base+1)
			}
		}
		if tx.ReadSetSize() != n || tx.WriteSetSize() != n {
			t.Fatalf("n=%d: set sizes %d, %d", n, tx.ReadSetSize(), tx.WriteSetSize())
		}
		mustFinish(t, tx)
		if d := time.Since(start) / time.Duration(n); d < best {
			best = d
		}
	}
	for i := 0; i < n; i++ {
		if v, _ := m.ReadCommitted(Addr(i)); v == 0 {
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

// TestStaleLockSnapshotStaysConsistent: the lockState a transaction
// publishes lives inside the Tx; a reader that loaded it before the commit
// must see the same (version, owners) after the slot has been released,
// the Tx dropped, and the slot acquired again.
func TestStaleLockSnapshotStaysConsistent(t *testing.T) {
	m := NewMemory(8)
	warm := m.Begin(1)
	rw(t, warm, 3)
	mustFinish(t, warm) // slot 3 at version 1

	tx1 := m.Begin(2)
	rw(t, tx1, 3)
	stale := m.entryFor(3).Load()
	check := func(when string) {
		t.Helper()
		if stale.version != 1 || len(stale.owners) != 1 || stale.owners[0] != tx1 {
			t.Fatalf("%s: stale snapshot = {%d %v}, want {1 [tx1]}", when, stale.version, stale.owners)
		}
	}
	check("while owned")
	mustFinish(t, tx1)
	check("after release")
	released := m.entryFor(3).Load()
	if released.version != 2 || len(released.owners) != 0 {
		t.Fatalf("released entry = {%d %v}, want {2 []}", released.version, released.owners)
	}

	tx2 := m.Begin(3)
	rw(t, tx2, 3)
	check("after re-acquisition")
	if cur := m.entryFor(3).Load(); cur == stale || cur.version != 2 || len(cur.owners) != 1 || cur.owners[0] != tx2 {
		t.Fatalf("re-acquired entry = {%d %v}, want {2 [tx2]}", cur.version, cur.owners)
	}
	if released.version != 2 || len(released.owners) != 0 {
		t.Fatalf("released snapshot changed to {%d %v}", released.version, released.owners)
	}
	mustFinish(t, tx2)
	check("after the second commit")
	if st := tx1.Status(); st != StatusCommitted || tx1.commitVersion != 2 {
		t.Fatalf("tx1 through the stale snapshot: %v at version %d", st, tx1.commitVersion)
	}
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
		if tx.DepsOpen() != 1 {
			t.Fatalf("tx %d: DepsOpen = %d, want 1", i, tx.DepsOpen())
		}
		mustDo(t, prev.Commit())
		prev = tx
	}
	after := heapObjects()
	mustDo(t, prev.Commit())
	if v, _ := m.ReadCommitted(0); v != n {
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
			w.commitApplyLocked(m.clock.Add(1), nil)
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
		if v, _ := m.ReadCommitted(0); v != 1 {
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
		if v, _ := m.ReadCommitted(0); v != 2 {
			t.Fatalf("word 0 = %d, want 2", v)
		}
	})
}
