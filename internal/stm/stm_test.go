package stm

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewMemoryPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMemory(0) did not panic")
		}
	}()
	NewMemory(0)
}

func TestAlloc(t *testing.T) {
	m := NewMemory(10)
	a, err := m.Alloc(4)
	if err != nil || a != 0 {
		t.Fatalf("Alloc(4) = %d, %v", a, err)
	}
	b, err := m.Alloc(6)
	if err != nil || b != 4 {
		t.Fatalf("Alloc(6) = %d, %v", b, err)
	}
	if _, err := m.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-alloc = %v, want ErrOutOfMemory", err)
	}
	if _, err := m.Alloc(0); !errors.Is(err, ErrBadAddr) {
		t.Fatalf("Alloc(0) = %v, want ErrBadAddr", err)
	}
	if int(m.allocNext.Load()) != 10 || m.Capacity() != 10 {
		t.Fatalf("Allocated=%d Capacity=%d", int(m.allocNext.Load()), m.Capacity())
	}
}

func TestBasicCommit(t *testing.T) {
	m := NewMemory(8)
	tx := m.Begin(1)
	if err := tx.Write(0, 42); err != nil {
		t.Fatal(err)
	}
	// Buffered write is invisible to committed reads.
	if v := m.data[0].Load(); v != 0 {
		t.Fatalf("uncommitted write visible: %d", v)
	}
	// Read-own-write.
	if v, err := tx.Read(0); err != nil || v != 42 {
		t.Fatalf("read own write = %d, %v", v, err)
	}
	// A read of one's own write is not a read-set entry; a second write to
	// the same address is not a second write-set entry.
	mustDo(t, tx.Write(0, 42))
	mustDo(t, tx.Write(1, 7))
	if _, err := tx.Read(2); err != nil {
		t.Fatal(err)
	}
	if r, w := tx.ReadSetSize(), len(tx.writes.items); r != 1 || w != 2 {
		t.Fatalf("ReadSetSize, WriteSetSize = %d, %d, want 1, 2", r, w)
	}
	if err := tx.Complete(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := m.data[0].Load(); v != 42 {
		t.Fatalf("committed value = %d, want 42", v)
	}
	if tx.Status() != StatusCommitted {
		t.Fatalf("status = %v", tx.Status())
	}
	if s := m.Stats(); s.Commits != 1 {
		t.Fatalf("commits = %d", s.Commits)
	}
}

func TestReadCommittedValue(t *testing.T) {
	m := NewMemory(8)
	mustRun(t, m, 1, func(tx *Tx) error { return tx.Write(3, 7) })
	tx := m.Begin(2)
	if v, err := tx.Read(3); err != nil || v != 7 {
		t.Fatalf("Read = %d, %v", v, err)
	}
	mustFinish(t, tx)
}

func TestBadAddr(t *testing.T) {
	m := NewMemory(4)
	tx := m.Begin(1)
	if _, err := tx.Read(99); !errors.Is(err, ErrBadAddr) {
		t.Fatalf("Read(99) = %v", err)
	}
	if err := tx.Write(99, 1); !errors.Is(err, ErrBadAddr) {
		t.Fatalf("Write(99) = %v", err)
	}
	tx.Abort()
}

func TestAbortDiscardsWrites(t *testing.T) {
	m := NewMemory(4)
	tx := m.Begin(1)
	if err := tx.Write(0, 5); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if v := m.data[0].Load(); v != 0 {
		t.Fatalf("aborted write visible: %d", v)
	}
	// The lock entry must be free for a new transaction.
	mustRun(t, m, 2, func(tx *Tx) error { return tx.Write(0, 9) })
	if v := m.data[0].Load(); v != 9 {
		t.Fatalf("post-abort write = %d, want 9", v)
	}
	if s := m.Stats(); s.Aborts != 1 {
		t.Fatalf("aborts = %d", s.Aborts)
	}
}

func TestOperationsAfterComplete(t *testing.T) {
	m := NewMemory(4)
	tx := m.Begin(1)
	if err := tx.Write(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Complete(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Write(1, 2); !errors.Is(err, ErrInvalidState) {
		t.Fatalf("Write after Complete = %v", err)
	}
	if _, err := tx.Read(0); !errors.Is(err, ErrInvalidState) {
		t.Fatalf("Read after Complete = %v", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrInvalidState) {
		t.Fatalf("double Commit = %v", err)
	}
}

func TestCommitBeforeComplete(t *testing.T) {
	m := NewMemory(4)
	tx := m.Begin(1)
	if err := tx.Commit(); !errors.Is(err, ErrInvalidState) {
		t.Fatalf("Commit while Active = %v", err)
	}
	tx.Abort()
}

// TestSpeculativeReadFrom is the paper's core §3 behaviour: an open
// (completed, not yet authorized) transaction's buffered value is visible
// to a later transaction, which becomes dependent on it.
func TestSpeculativeReadFrom(t *testing.T) {
	m := NewMemory(4)
	a := m.Begin(1)
	if err := a.Write(0, 100); err != nil {
		t.Fatal(err)
	}
	if err := a.Complete(); err != nil {
		t.Fatal(err)
	}

	b := m.Begin(2)
	v, err := b.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 100 {
		t.Fatalf("speculative read = %d, want 100 (a's buffer)", v)
	}
	if err := b.Complete(); err != nil {
		t.Fatal(err)
	}
	// b cannot commit while a is open.
	if err := b.Commit(); !errors.Is(err, ErrDepsOpen) {
		t.Fatalf("Commit with open dep = %v, want ErrDepsOpen", err)
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
}

// abortCount is an AbortHook that counts its calls.
type abortCount struct{ atomic.Int32 }

func (c *abortCount) TxAborted(*Tx) { c.Add(1) }

// TestCascadingAbort: if the transaction whose buffer was read aborts, the
// dependent aborts too, and its OnAbort callback fires.
func TestCascadingAbort(t *testing.T) {
	m := NewMemory(4)
	a := m.Begin(1)
	if err := a.Write(0, 100); err != nil {
		t.Fatal(err)
	}
	if err := a.Complete(); err != nil {
		t.Fatal(err)
	}

	b := m.Begin(2)
	if _, err := b.Read(0); err != nil {
		t.Fatal(err)
	}
	if err := b.Complete(); err != nil {
		t.Fatal(err)
	}
	var aborted abortCount
	b.OnAbort(&aborted)

	a.Abort()
	if b.Status() != StatusAborted {
		t.Fatalf("dependent status = %v, want aborted", b.Status())
	}
	if aborted.Load() != 1 {
		t.Fatalf("OnAbort fired %d times, want 1", aborted.Load())
	}
	if err := b.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("Commit of cascaded-abort tx = %v, want ErrConflict", err)
	}
}

// TestCascadingAbortChain: abort propagates transitively a→b→c.
func TestCascadingAbortChain(t *testing.T) {
	m := NewMemory(4)
	a := m.Begin(1)
	mustDo(t, a.Write(0, 1))
	mustDo(t, a.Complete())
	b := m.Begin(2)
	if _, err := b.Read(0); err != nil {
		t.Fatal(err)
	}
	mustDo(t, b.Write(1, 2))
	mustDo(t, b.Complete())
	c := m.Begin(3)
	if _, err := c.Read(1); err != nil {
		t.Fatal(err)
	}
	mustDo(t, c.Complete())

	a.Abort()
	if b.Status() != StatusAborted || c.Status() != StatusAborted {
		t.Fatalf("statuses after cascade: b=%v c=%v", b.Status(), c.Status())
	}
	if s := m.Stats(); s.Aborts != 3 {
		t.Fatalf("aborts = %d, want 3", s.Aborts)
	}
}

// TestCascadeKillsActiveDependent: an Active dependent is killed and its
// next operation reports the conflict.
func TestCascadeKillsActiveDependent(t *testing.T) {
	m := NewMemory(4)
	a := m.Begin(1)
	mustDo(t, a.Write(0, 1))
	mustDo(t, a.Complete())
	b := m.Begin(2)
	if _, err := b.Read(0); err != nil { // dependency created while Active
		t.Fatal(err)
	}
	a.Abort()
	if b.Status() != StatusKilled {
		t.Fatalf("active dependent status = %v, want killed", b.Status())
	}
	if _, err := b.Read(1); !errors.Is(err, ErrConflict) {
		t.Fatalf("killed tx Read = %v, want ErrConflict", err)
	}
	if err := b.Complete(); !errors.Is(err, ErrConflict) {
		t.Fatalf("killed tx Complete = %v, want ErrConflict", err)
	}
	b.Abort()
}

// TestOverwriteOpenBuffer: write-after-write over an open transaction is
// allowed, creates a dependency, and the final committed value is the
// later transaction's.
func TestOverwriteOpenBuffer(t *testing.T) {
	m := NewMemory(4)
	a := m.Begin(1)
	mustDo(t, a.Write(0, 10))
	mustDo(t, a.Complete())
	b := m.Begin(2)
	mustDo(t, b.Write(0, 20))
	mustDo(t, b.Complete())

	if err := b.Commit(); !errors.Is(err, ErrDepsOpen) {
		t.Fatalf("WAW dependent commit = %v, want ErrDepsOpen", err)
	}
	mustDo(t, a.Commit())
	mustDo(t, b.Commit())
	if v := m.data[0].Load(); v != 20 {
		t.Fatalf("final value = %d, want 20", v)
	}
}

// TestActiveConflictAbortNewest: two active transactions writing the same
// address — the one with the larger timestamp loses.
func TestActiveConflictAbortNewest(t *testing.T) {
	m := NewMemory(4)
	older := m.Begin(1)
	newer := m.Begin(2)
	mustDo(t, older.Write(0, 1))
	// newer writing the same address must lose immediately.
	if err := newer.Write(0, 2); !errors.Is(err, ErrConflict) {
		t.Fatalf("newer Write = %v, want ErrConflict", err)
	}
	newer.Abort()
	mustDo(t, older.Complete())
	mustDo(t, older.Commit())
	if v := m.data[0].Load(); v != 1 {
		t.Fatalf("value = %d, want 1", v)
	}
	if s := m.Stats(); s.Conflicts == 0 {
		t.Fatal("conflict counter not bumped")
	}
}

// TestActiveConflictKillsNewerOwner: the older transaction arrives second
// and kills the newer active owner.
func TestActiveConflictKillsNewerOwner(t *testing.T) {
	m := NewMemory(4)
	newer := m.Begin(5)
	older := m.Begin(1)
	mustDo(t, newer.Write(0, 2))

	done := make(chan error, 1)
	go func() {
		// older's write spins until newer aborts; run it concurrently.
		done <- older.Write(0, 1)
	}()
	// newer must get killed; give the scheduler a moment then observe.
	deadline := time.After(2 * time.Second)
	for newer.Status() != StatusKilled {
		select {
		case <-deadline:
			t.Fatal("newer was not killed")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// The killed transaction's goroutine notices and aborts.
	if err := newer.Complete(); !errors.Is(err, ErrConflict) {
		t.Fatalf("killed Complete = %v, want ErrConflict", err)
	}
	newer.Abort()
	if err := <-done; err != nil {
		t.Fatalf("older Write = %v", err)
	}
	mustDo(t, older.Complete())
	mustDo(t, older.Commit())
	if v := m.data[0].Load(); v != 1 {
		t.Fatalf("value = %d, want 1", v)
	}
}

// TestReadBeneathNewerOpenOwner: a transaction must not see the buffered
// writes of an open transaction with a larger timestamp (its future).
func TestReadBeneathNewerOpenOwner(t *testing.T) {
	m := NewMemory(4)
	mustRun(t, m, 1, func(tx *Tx) error { return tx.Write(0, 7) })

	future := m.Begin(10)
	mustDo(t, future.Write(0, 99))
	mustDo(t, future.Complete())

	past := m.Begin(5)
	v, err := past.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 {
		t.Fatalf("read beneath newer owner = %d, want committed 7", v)
	}
	mustDo(t, past.Complete())
	// past commits first (timestamp order), future after.
	mustDo(t, past.Commit())
	mustDo(t, future.Commit())
	if v := m.data[0].Load(); v != 99 {
		t.Fatalf("final value = %d, want 99", v)
	}
}

// TestStaleReadDetectedAtCommit: t2 reads an address, then an older open
// transaction t1 (which must commit first) turns out to have written it;
// t2's validation fails.
func TestStaleReadDetectedAtCommit(t *testing.T) {
	m := NewMemory(4)
	t1 := m.Begin(1)
	t2 := m.Begin(2)
	if _, err := t2.Read(0); err != nil { // reads version 0
		t.Fatal(err)
	}
	mustDo(t, t1.Write(0, 5)) // older writer appears after the read
	mustDo(t, t1.Complete())
	if err := t2.Complete(); !errors.Is(err, ErrConflict) {
		t.Fatalf("t2.Complete = %v, want ErrConflict (stale read)", err)
	}
	t2.Abort()
	mustDo(t, t1.Commit())
}

// TestValidationDetectsCommittedOverwrite: a committed overwrite after the
// read invalidates the reader.
func TestValidationDetectsCommittedOverwrite(t *testing.T) {
	m := NewMemory(4)
	reader := m.Begin(2)
	if _, err := reader.Read(0); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m, 1, func(tx *Tx) error { return tx.Write(0, 5) })
	if err := reader.Complete(); !errors.Is(err, ErrConflict) {
		t.Fatalf("reader.Complete = %v, want ErrConflict", err)
	}
	reader.Abort()
}

// TestCommitGroupKeepsLaterOverwriteVisible: r reads an address from the
// open g1; g2, older than r, then overwrites it. Committing g1 and g2 as one
// group must leave r as stale as two Commits would: r never saw g2's value.
func TestCommitGroupKeepsLaterOverwriteVisible(t *testing.T) {
	m := NewMemory(4)
	g1, g2, r := m.Begin(1), m.Begin(2), m.Begin(3)
	mustDo(t, g1.Write(0, 5))
	mustDo(t, g1.Complete())
	if v, err := r.Read(0); err != nil || v != 5 {
		t.Fatalf("r reads %d, %v; want g1's 5", v, err)
	}
	mustDo(t, r.Complete())
	mustDo(t, g2.Write(0, 7))
	mustDo(t, g2.Complete())
	if n, err := m.CommitGroup([]*Tx{g1, g2}); n != 2 || err != nil {
		t.Fatalf("CommitGroup = %d, %v; want 2, nil", n, err)
	}
	if err := r.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("r.Commit = %v, want ErrConflict: it read 5 where g2 left 7", err)
	}
	if r.Status() != StatusAborted {
		t.Fatalf("r is %s, want aborted", r.Status())
	}
}

// TestCommitByAnotherThread: the paper's §5 requirement — a transaction
// executed on one thread is committed from another.
func TestCommitByAnotherThread(t *testing.T) {
	m := NewMemory(4)
	tx := m.Begin(1)
	doneExec := make(chan struct{})
	go func() {
		defer close(doneExec)
		if err := tx.Write(0, 11); err != nil {
			t.Error(err)
			return
		}
		if err := tx.Complete(); err != nil {
			t.Error(err)
		}
	}()
	<-doneExec
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := m.data[0].Load(); v != 11 {
		t.Fatalf("value = %d, want 11", v)
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := NewMemory(8)
	if _, err := m.Alloc(3); err != nil {
		t.Fatal(err)
	}
	mustRun(t, m, 1, func(tx *Tx) error {
		if err := tx.Write(0, 1); err != nil {
			return err
		}
		if err := tx.Write(1, 2); err != nil {
			return err
		}
		return tx.Write(2, 3)
	})
	img := m.Snapshot()
	if len(img) != 3 || img[0] != 1 || img[1] != 2 || img[2] != 3 {
		t.Fatalf("snapshot = %v", img)
	}

	m2 := NewMemory(8)
	if err := m2.Restore(img); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{1, 2, 3} {
		if v := m2.data[i].Load(); v != want {
			t.Fatalf("restored[%d] = %d, want %d", i, v, want)
		}
	}
	if int(m2.allocNext.Load()) != 3 {
		t.Fatalf("restored Allocated = %d, want 3", int(m2.allocNext.Load()))
	}
	if err := m2.Restore(make([]uint64, 100)); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("oversized Restore = %v", err)
	}
}

func TestStatusString(t *testing.T) {
	want := map[Status]string{
		StatusActive:    "active",
		StatusKilled:    "killed",
		StatusCompleted: "completed",
		StatusCommitted: "committed",
		StatusAborted:   "aborted",
		Status(42):      "status(42)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("Status(%d).String() = %q, want %q", s, got, w)
		}
	}
}

// --- concurrency stress tests ---

// TestConcurrentCounter is the classic lost-update test: N workers each
// increment a shared counter K times inside transactions; the final value
// must be exactly N*K.
func TestConcurrentCounter(t *testing.T) {
	m := NewMemory(4)
	const workers, perWorker = 8, 200
	var ts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				incrementWithRetry(t, m, &ts, 0)
			}
		}()
	}
	wg.Wait()
	if v := m.data[0].Load(); v != workers*perWorker {
		t.Fatalf("counter = %d, want %d", v, workers*perWorker)
	}
}

// TestConcurrentDisjointAddresses: transactions over disjoint addresses
// proceed without interference (no lost work, all commits succeed).
func TestConcurrentDisjointAddresses(t *testing.T) {
	const workers, perWorker = 8, 200
	m := NewMemory(workers)
	var ts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				incrementWithRetry(t, m, &ts, Addr(w))
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if v := m.data[w].Load(); v != perWorker {
			t.Fatalf("slot %d = %d, want %d", w, v, perWorker)
		}
	}
}

// incrementWithRetry performs one transactional increment of addr,
// retrying on conflicts and open dependencies, following the engine's
// retry discipline.
func incrementWithRetry(t *testing.T, m *Memory, ts *atomic.Int64, addr Addr) {
	t.Helper()
	for {
		tx := m.Begin(ts.Add(1))
		ok := func() bool {
			v, err := tx.Read(addr)
			if err != nil {
				return false
			}
			if err := tx.Write(addr, v+1); err != nil {
				return false
			}
			return tx.Complete() == nil
		}()
		if !ok {
			tx.Abort()
			continue
		}
		for {
			err := tx.Commit()
			if err == nil {
				return
			}
			if errors.Is(err, ErrDepsOpen) {
				time.Sleep(time.Microsecond)
				continue
			}
			tx.Abort()
			break // conflict: retry whole transaction
		}
	}
}

// TestConcurrentMixedReadWrite exercises readers validating against
// concurrent committers without data corruption.
func TestConcurrentMixedReadWrite(t *testing.T) {
	m := NewMemory(16)
	var ts atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writers keep two slots equal: tx writes the same value to 0 and 1.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for {
				tx := m.Begin(ts.Add(1))
				if tx.Write(0, i) != nil || tx.Write(1, i) != nil || tx.Complete() != nil {
					tx.Abort()
					continue
				}
				if err := commitWithRetry(tx); err == nil {
					break
				}
			}
		}
	}()
	// Readers must always observe slot0 == slot1 in a committed snapshot.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 500; n++ {
				tx := m.Begin(ts.Add(1))
				a, err1 := tx.Read(0)
				b, err2 := tx.Read(1)
				if err1 != nil || err2 != nil || tx.Complete() != nil {
					tx.Abort()
					continue
				}
				if err := commitWithRetry(tx); err != nil {
					continue
				}
				if a != b {
					t.Errorf("torn read: %d != %d", a, b)
					return
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func commitWithRetry(tx *Tx) error {
	for {
		err := tx.Commit()
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrDepsOpen) {
			time.Sleep(time.Microsecond)
			continue
		}
		tx.Abort()
		return err
	}
}

// --- helpers ---

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// mustRun executes fn in a transaction and commits it, failing the test on
// any error.
func mustRun(t *testing.T, m *Memory, ts int64, fn func(*Tx) error) {
	t.Helper()
	tx := m.Begin(ts)
	if err := fn(tx); err != nil {
		t.Fatal(err)
	}
	mustFinish(t, tx)
}

func mustFinish(t *testing.T, tx *Tx) {
	t.Helper()
	if err := tx.Complete(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkReadWrite(b *testing.B) {
	m := NewMemory(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := m.Begin(int64(i))
		if _, err := tx.Read(Addr(i % 1024)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Write(Addr(i%1024), uint64(i)); err != nil {
			b.Fatal(err)
		}
		if err := tx.Complete(); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
