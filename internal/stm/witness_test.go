package stm

import (
	"sync"
	"testing"
)

// collectSink records every witness for assertions.
type collectSink struct {
	mu sync.Mutex
	ws []ConflictWitness
}

func (s *collectSink) RecordConflict(w ConflictWitness) {
	s.mu.Lock()
	s.ws = append(s.ws, w)
	s.mu.Unlock()
}

func (s *collectSink) byKind(k ConflictKind) []ConflictWitness {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []ConflictWitness
	for _, w := range s.ws {
		if w.Kind == k {
			out = append(out, w)
		}
	}
	return out
}

// TestWitnessWriteWrite: two active writers colliding on an address yield a
// write-write witness naming the address.
func TestWitnessWriteWrite(t *testing.T) {
	sink := &collectSink{}
	m := NewMemory(16)
	m.SetConflictSink(sink)
	older := m.Begin(1)
	newer := m.Begin(2)
	if err := older.Write(3, 10); err != nil {
		t.Fatalf("older write: %v", err)
	}
	if err := newer.Write(3, 20); err != ErrConflict {
		t.Fatalf("newer write: got %v, want ErrConflict", err)
	}
	ws := sink.byKind(ConflictWriteWrite)
	if len(ws) != 1 {
		t.Fatalf("write-write witnesses: got %d, want 1", len(ws))
	}
	if w := ws[0]; w.Addr != 3 {
		t.Fatalf("witness = %+v, want addr=3", w)
	}
}

// TestWitnessValidation: a committed overwrite between read and validation
// produces a validation witness for the stale address.
func TestWitnessValidation(t *testing.T) {
	sink := &collectSink{}
	m := NewMemory(16)
	m.SetConflictSink(sink)
	reader := m.Begin(1)
	if _, err := reader.Read(5); err != nil {
		t.Fatalf("read: %v", err)
	}
	writer := m.Begin(2)
	if err := writer.Write(5, 42); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := writer.Complete(); err != nil {
		t.Fatalf("complete: %v", err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	if err := reader.Complete(); err != ErrConflict {
		t.Fatalf("reader complete: got %v, want ErrConflict", err)
	}
	ws := sink.byKind(ConflictValidation)
	if len(ws) != 1 {
		t.Fatalf("validation witnesses: got %d, want 1", len(ws))
	}
	if w := ws[0]; w.Addr != 5 {
		t.Fatalf("witness = %+v, want addr=5", w)
	}
}

// TestWitnessCascade: aborting an open transaction cascades to its
// speculative reader with a witness naming the dependency address.
func TestWitnessCascade(t *testing.T) {
	sink := &collectSink{}
	m := NewMemory(16)
	m.SetConflictSink(sink)
	producer := m.Begin(1)
	if err := producer.Write(7, 99); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := producer.Complete(); err != nil {
		t.Fatalf("complete: %v", err)
	}
	consumer := m.Begin(2)
	if v, err := consumer.Read(7); err != nil || v != 99 {
		t.Fatalf("speculative read: %d, %v", v, err)
	}
	producer.Abort()
	ws := sink.byKind(ConflictCascade)
	if len(ws) != 1 {
		t.Fatalf("cascade witnesses: got %d, want 1", len(ws))
	}
	if w := ws[0]; w.Addr != 7 {
		t.Fatalf("witness = %+v, want addr=7", w)
	}
	if err := consumer.checkRunnable(); err != ErrConflict {
		t.Fatalf("consumer should be doomed, checkRunnable = %v", err)
	}
}

// TestConflictFreePathRecordsNothing: a conflict-free workload must never
// invoke the sink — witness recording lives only on failure paths.
func TestConflictFreePathRecordsNothing(t *testing.T) {
	sink := &collectSink{}
	m := NewMemory(64)
	m.SetConflictSink(sink)
	for i := int64(0); i < 50; i++ {
		tx := m.Begin(i)
		if _, err := tx.Read(Addr(i % 8)); err != nil {
			t.Fatalf("read: %v", err)
		}
		if err := tx.Write(Addr(i%8), uint64(i)); err != nil {
			t.Fatalf("write: %v", err)
		}
		if err := tx.Complete(); err != nil {
			t.Fatalf("complete: %v", err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit: %v", err)
		}
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.ws) != 0 {
		t.Fatalf("conflict-free run recorded %d witnesses, want 0", len(sink.ws))
	}
}

// TestValidatePathZeroAlloc proves the profiling-off validate/extend path
// allocates nothing: the only addition for witnessing is the m.sink != nil
// check at the failure returns.
func TestValidatePathZeroAlloc(t *testing.T) {
	m := NewMemory(64)
	for i := Addr(0); i < 8; i++ {
		m.data[i].Store(uint64(i))
	}
	tx := m.Begin(1)
	for i := Addr(0); i < 8; i++ {
		if _, err := tx.Read(i); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if !tx.validateReads() {
			t.Fatal("validation unexpectedly failed")
		}
	}); allocs != 0 {
		t.Fatalf("validateReads allocated %.1f per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if !tx.extendSnapshot() {
			t.Fatal("extend unexpectedly failed")
		}
	}); allocs != 0 {
		t.Fatalf("extendSnapshot allocated %.1f per run, want 0", allocs)
	}
}

// BenchmarkCommitPath is the regression baseline for the STM commit path
// (docs/OBSERVABILITY.md: "with profiling disabled, no measurable
// regression"). Run with -benchmem to compare allocations across commits.
func BenchmarkCommitPath(b *testing.B) {
	m := NewMemory(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := m.Begin(int64(i))
		if _, err := tx.Read(1); err != nil {
			b.Fatal(err)
		}
		if err := tx.Write(1, uint64(i)); err != nil {
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
