package wal

import (
	"errors"
	"path/filepath"
	"testing"

	"streammine/internal/storage"
)

func openStore(t *testing.T, maxSegment int64) (*SegmentStore, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "wal")
	s, err := OpenSegmentStore(dir, maxSegment)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

func TestSegmentStoreThroughLog(t *testing.T) {
	store, _ := openStore(t, 1<<20)
	pool := storage.NewPool([]storage.Disk{store})
	defer pool.Close()
	l := New(pool)
	for i := uint64(1); i <= 20; i++ {
		if _, err := l.AppendSync([]Record{{Kind: KindRandom, Operator: 3, Value: i}}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := store.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 {
		t.Fatalf("scanned %d records, want 20", len(recs))
	}
	for i, r := range recs {
		if r.LSN != LSN(i+1) || r.Value != uint64(i+1) {
			t.Fatalf("record %d: %+v", i, r)
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	store, _ := openStore(t, 4096)
	payload := make([]byte, 1500)
	for i := 0; i < 10; i++ {
		if err := store.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	idxs, err := store.segmentIndexes()
	if err != nil {
		t.Fatal(err)
	}
	// 10 × 1500 B with a 4 KiB cap → at least 4 segments.
	if n := len(idxs); n < 4 {
		t.Fatalf("segments = %d, want >= 4", n)
	}
}

func TestSegmentReopenContinues(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	s1, err := OpenSegmentStore(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rec := encode(nil, Record{LSN: 1, Kind: KindRandom, Value: 7})
	if err := s1.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSegmentStore(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rec2 := encode(nil, Record{LSN: 2, Kind: KindTime, Value: 9})
	if err := s2.Write(rec2); err != nil {
		t.Fatal(err)
	}
	recs, err := s2.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].LSN != 1 || recs[1].LSN != 2 {
		t.Fatalf("after reopen scan = %+v", recs)
	}
}

func TestSegmentPrune(t *testing.T) {
	store, _ := openStore(t, 4096)
	// Write records with growing LSNs; each ~3 KiB batch fills most of a
	// 4 KiB segment, so every batch lands in its own segment.
	lsn := LSN(0)
	for seg := 0; seg < 5; seg++ {
		var buf []byte
		for r := 0; r < 66; r++ {
			lsn++
			buf = encode(buf, Record{LSN: lsn, Kind: KindRandom, Value: uint64(lsn)})
		}
		if err := store.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	idxs, _ := store.segmentIndexes()
	before := len(idxs)
	if before < 2 {
		t.Fatalf("segments = %d, want >= 2 for a meaningful prune", before)
	}
	// Prune everything at or below half the records.
	removed, err := store.Prune(lsn / 2)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("nothing pruned")
	}
	recs, err := store.Scan()
	if err != nil {
		t.Fatal(err)
	}
	// All surviving segments keep their records; the earliest surviving
	// record must be <= cut+segment granularity, and the latest must be
	// intact.
	if recs[len(recs)-1].LSN != lsn {
		t.Fatalf("latest record lost: %d != %d", recs[len(recs)-1].LSN, lsn)
	}
	for _, r := range recs {
		if r.LSN == 0 {
			t.Fatal("corrupt record after prune")
		}
	}
	// Records above the cut must all survive.
	seen := make(map[LSN]bool, len(recs))
	for _, r := range recs {
		seen[r.LSN] = true
	}
	for l := lsn/2 + 1; l <= lsn; l++ {
		if !seen[l] {
			t.Fatalf("record %d above the cut was pruned", l)
		}
	}
}

func TestSegmentWriteAfterClose(t *testing.T) {
	store, _ := openStore(t, 4096)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close = %v, want ErrClosed", err)
	}
	if err := store.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestSegmentRecoveryPath exercises the full loop: log through the pool
// into segments and scan everything back from disk, marks included.
func TestSegmentRecoveryPath(t *testing.T) {
	store, _ := openStore(t, 8192)
	pool := storage.NewPool([]storage.Disk{store})
	defer pool.Close()
	l := New(pool)
	for i := uint64(1); i <= 10; i++ {
		if _, err := l.AppendSync([]Record{{Kind: KindInput, Operator: 7, Value: i % 2}}); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint mark covering the first 6 records.
	if _, err := l.AppendSync([]Record{{Kind: KindCheckpointMark, Operator: 7, Value: 6}}); err != nil {
		t.Fatal(err)
	}
	recs, err := store.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 11 {
		t.Fatalf("scan = %d records, want 11", len(recs))
	}
	if mark := recs[10]; mark.Kind != KindCheckpointMark || mark.Value != 6 {
		t.Fatalf("last record = %+v, want the mark covering 6", mark)
	}
	for i, r := range recs {
		if r.LSN != LSN(1+i) {
			t.Fatalf("recs[%d].LSN = %d", i, r.LSN)
		}
	}
}
