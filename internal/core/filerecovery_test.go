package core

import (
	"path/filepath"
	"testing"
	"time"

	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/wal"
)

// TestRecoveryFromSegmentedFiles runs the crash/recovery protocol with the
// decision log on real segmented files: the replay plan is rebuilt by
// scanning the segments from disk, not from any in-memory mirror —
// end-to-end durability of the recovery path.
func TestRecoveryFromSegmentedFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	store, err := wal.OpenSegmentStore(dir, 16<<10)
	if err != nil {
		t.Fatal(err)
	}
	pool := storage.NewPool([]storage.Disk{store})
	t.Cleanup(func() { pool.Close() })

	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{
		Name:            "proc",
		Op:              &operator.Classifier{Classes: 3},
		Traits:          operator.ClassifierTraits(3),
		Speculative:     true,
		CheckpointEvery: 10,
	})
	g.Connect(src, 0, proc, 0)

	eng, err := New(g, Options{
		Pool:       pool,
		Seed:       55,
		LogScanner: store.Scan,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Stop)

	sink := newDedupSink(t)
	if err := eng.Subscribe(proc, 0, sink.fn); err != nil {
		t.Fatal(err)
	}
	s, _ := eng.Source(src)
	const total = 50
	for i := 0; i < total/2; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !sink.waitCount(total / 4) {
		t.Fatal("pre-crash progress stalled")
	}
	if err := eng.Crash(proc); err != nil {
		t.Fatal(err)
	}
	if err := eng.Recover(proc); err != nil {
		t.Fatal(err)
	}
	for i := total / 2; i < total; i++ {
		if _, err := s.Emit(uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if !sink.waitCount(total) {
		t.Fatalf("post-recovery stalled at %d of %d", sink.count(), total)
	}
	drainOrDump(t, eng, 10*time.Second)
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}

	// The on-disk log must hold input records plus checkpoint marks.
	recs, err := store.Scan()
	if err != nil {
		t.Fatal(err)
	}
	inputs, marks := 0, 0
	for _, r := range recs {
		switch r.Kind {
		case wal.KindInput:
			inputs++
		case wal.KindCheckpointMark:
			marks++
		}
	}
	if inputs < total {
		t.Fatalf("on-disk input records = %d, want >= %d", inputs, total)
	}
	if marks == 0 {
		t.Fatal("no checkpoint marks on disk")
	}

	// Per-class counts 1..N: state carried precisely across the crash.
	perClass := make(map[uint64]map[uint64]bool)
	for _, payload := range sink.snapshot() {
		class, count := operator.DecodePair(payload)
		if perClass[class] == nil {
			perClass[class] = make(map[uint64]bool)
		}
		perClass[class][count] = true
	}
	for class, counts := range perClass {
		for c := uint64(1); c <= uint64(len(counts)); c++ {
			if !counts[c] {
				t.Fatalf("class %d missing count %d", class, c)
			}
		}
	}
}
