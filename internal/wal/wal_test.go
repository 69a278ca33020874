package wal

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"streammine/internal/event"
	"streammine/internal/storage"
)

func newMemLog(t *testing.T) (*Log, *storage.MemDisk, *storage.Pool) {
	t.Helper()
	mem := storage.NewMemDisk()
	pool := storage.NewPool([]storage.Disk{mem})
	t.Cleanup(func() { pool.Close() })
	return New(pool), mem, pool
}

func TestAppendAssignsMonotonicLSNs(t *testing.T) {
	l, _, _ := newMemLog(t)
	last1, err := l.AppendSync([]Record{{Kind: KindRandom, Value: 1}, {Kind: KindRandom, Value: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if last1 != 2 {
		t.Fatalf("first batch last LSN = %d, want 2", last1)
	}
	last2, err := l.AppendSync([]Record{{Kind: KindTime, Value: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if last2 != 3 {
		t.Fatalf("second batch last LSN = %d, want 3", last2)
	}
	if l.StableLSN() != 3 {
		t.Fatalf("StableLSN = %d, want 3", l.StableLSN())
	}
	if l.NextLSN() != 4 {
		t.Fatalf("NextLSN = %d, want 4", l.NextLSN())
	}
}

func TestAppendEmptyBatch(t *testing.T) {
	l, _, _ := newMemLog(t)
	called := false
	lsn, err := l.Append(nil, func(err error) { called = true })
	if err != nil || lsn != 0 {
		t.Fatalf("Append(nil) = %d, %v", lsn, err)
	}
	if !called {
		t.Fatal("done not called for empty batch")
	}
}

func TestScanRoundTrip(t *testing.T) {
	l, mem, _ := newMemLog(t)
	recs := []Record{
		{Kind: KindInput, Operator: 7, Event: event.ID{Source: 1, Seq: 9}, Value: 0},
		{Kind: KindRandom, Operator: 7, Event: event.ID{Source: 1, Seq: 9}, Value: 0xDEADBEEF},
		{Kind: KindTime, Operator: 8, Value: 123456},
		{Kind: KindCustom, Operator: 8, Aux: []byte("free-form")},
	}
	if _, err := l.AppendSync(recs); err != nil {
		t.Fatal(err)
	}
	got, err := Scan(mem.Contents())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(got), len(recs))
	}
	for i, r := range got {
		if r.LSN != LSN(i+1) {
			t.Errorf("record %d LSN = %d, want %d", i, r.LSN, i+1)
		}
		if r.Kind != recs[i].Kind || r.Operator != recs[i].Operator ||
			r.Event != recs[i].Event || r.Value != recs[i].Value ||
			string(r.Aux) != string(recs[i].Aux) {
			t.Errorf("record %d mismatch: got %+v want %+v", i, r, recs[i])
		}
	}
}

func TestScanDetectsCorruption(t *testing.T) {
	l, mem, _ := newMemLog(t)
	if _, err := l.AppendSync([]Record{{Kind: KindRandom, Value: 42}}); err != nil {
		t.Fatal(err)
	}
	data := mem.Contents()
	data[len(data)-1] ^= 0xFF
	if _, err := Scan(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Scan of corrupted data = %v, want ErrCorrupt", err)
	}
}

func TestScanTruncatedTail(t *testing.T) {
	l, mem, _ := newMemLog(t)
	if _, err := l.AppendSync([]Record{{Kind: KindRandom, Value: 1}, {Kind: KindRandom, Value: 2}}); err != nil {
		t.Fatal(err)
	}
	data := mem.Contents()
	got, err := Scan(data[:len(data)-3])
	if err == nil {
		t.Fatal("Scan of truncated log succeeded")
	}
	// The intact prefix must still be returned.
	if len(got) != 1 || got[0].Value != 1 {
		t.Fatalf("intact prefix = %+v", got)
	}
}

func TestConcurrentAppendsKeepLSNOrder(t *testing.T) {
	l, mem, _ := newMemLog(t)
	const workers, per = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := l.AppendSync([]Record{{Kind: KindRandom, Operator: uint32(w), Value: uint64(i)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	got, err := Scan(mem.Contents())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != workers*per {
		t.Fatalf("scanned %d records, want %d", len(got), workers*per)
	}
	// Writer-pool batches must have preserved global LSN order on disk.
	for i, r := range got {
		if r.LSN != LSN(i+1) {
			t.Fatalf("record %d has LSN %d: disk order != LSN order", i, r.LSN)
		}
	}
	// Per-operator Values must be in order too.
	next := make([]uint64, workers)
	for _, r := range got {
		if r.Value != next[r.Operator] {
			t.Fatalf("operator %d saw value %d, want %d", r.Operator, r.Value, next[r.Operator])
		}
		next[r.Operator]++
	}
}

func TestAppendAfterClose(t *testing.T) {
	l, _, _ := newMemLog(t)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]Record{{Kind: KindRandom}}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindInput:          "input",
		KindRandom:         "random",
		KindTime:           "time",
		KindCustom:         "custom",
		KindCheckpointMark: "checkpoint",
		Kind(99):           "kind(99)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestQuickEncodeDecode property-tests the record codec.
func TestQuickEncodeDecode(t *testing.T) {
	f := func(lsn uint64, kind uint8, op uint32, src uint32, seq uint64, val uint64, aux []byte) bool {
		r := Record{
			LSN:      LSN(lsn),
			Kind:     Kind(kind),
			Operator: op,
			Event:    event.ID{Source: event.SourceID(src), Seq: event.Seq(seq)},
			Value:    val,
			Aux:      aux,
		}
		buf := encode(nil, r)
		got, n, err := decodeOne(buf)
		if err != nil || n != len(buf) {
			return false
		}
		if len(aux) == 0 {
			r.Aux = nil
		}
		return got.LSN == r.LSN && got.Kind == r.Kind && got.Operator == r.Operator &&
			got.Event == r.Event && got.Value == r.Value && string(got.Aux) == string(r.Aux)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendSync(b *testing.B) {
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	defer pool.Close()
	l := New(pool)
	rec := []Record{{Kind: KindRandom, Operator: 1, Value: 42}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.AppendSync(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// nullDisk accepts writes and keeps nothing, so an allocation count over it
// is the log's and the pool's alone.
type nullDisk struct{}

func (nullDisk) Write(p []byte) error { return nil }
func (nullDisk) Close() error         { return nil }

// TestAppendAllocs pins what a synchronous append costs, pool round trip
// included: the encoded buffer is sized once for the whole run and the
// record header is checksummed on the stack, so a run of eight allocates
// exactly what a run of one does.
func TestAppendAllocs(t *testing.T) {
	const want = 5 // buffer, two callbacks, the channel and its slot
	pool := storage.NewPool([]storage.Disk{nullDisk{}})
	defer pool.Close()
	l := New(pool)
	for _, n := range []int{1, 8} {
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{Kind: KindInput, Operator: 1, Event: event.ID{Source: 1, Seq: event.Seq(i)}}
		}
		allocs := testing.AllocsPerRun(300, func() {
			if _, err := l.AppendSync(recs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > want {
			t.Errorf("AppendSync of %d records allocated %.1f, want at most %d", n, allocs, want)
		}
	}
}
