package sketch

import (
	"math"
	"testing"

	"streammine/internal/detrand"
	"streammine/internal/stm"
)

func TestCountSketchExact(t *testing.T) {
	cs := NewCountSketch(5, 1024, 42)
	cs.Update(7, 100)
	cs.Update(8, 50)
	if got := cs.Estimate(7); got != 100 {
		t.Fatalf("Estimate(7) = %d, want 100 (sparse sketch should be exact)", got)
	}
	if got := cs.Estimate(8); got != 50 {
		t.Fatalf("Estimate(8) = %d, want 50", got)
	}
	if got := cs.Estimate(999); got != 0 {
		t.Fatalf("Estimate(absent) = %d, want 0", got)
	}
}

func TestCountSketchNegativeCounts(t *testing.T) {
	cs := NewCountSketch(5, 1024, 42)
	cs.Update(7, 100)
	cs.Update(7, -40)
	if got := cs.Estimate(7); got != 60 {
		t.Fatalf("Estimate after decrement = %d, want 60", got)
	}
}

// TestCountSketchAccuracyZipf checks the error bound on a skewed stream:
// heavy hitters must be estimated within a small relative error.
func TestCountSketchAccuracyZipf(t *testing.T) {
	cs := NewCountSketch(5, 2048, 1)
	src := detrand.New(7)
	zipf := detrand.NewZipf(src, 10000, 1.1)
	truth := make(map[uint64]int64)
	const n = 100000
	for i := 0; i < n; i++ {
		k := uint64(zipf.Draw())
		truth[k]++
		cs.Update(k, 1)
	}
	for k := uint64(0); k < 10; k++ { // the 10 heaviest ranks
		actual := truth[k]
		if actual == 0 {
			continue
		}
		est := cs.Estimate(k)
		relErr := math.Abs(float64(est-actual)) / float64(actual)
		if relErr > 0.15 {
			t.Errorf("key %d: estimate %d vs actual %d (rel err %.2f)", k, est, actual, relErr)
		}
	}
}

func TestCountSketchPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCountSketch(0,0) did not panic")
		}
	}()
	NewCountSketch(0, 0, 1)
}

func TestMedian(t *testing.T) {
	tests := []struct {
		in   []int64
		want int64
	}{
		{[]int64{5}, 5},
		{[]int64{3, 1, 2}, 2},
		{[]int64{4, 1, 3, 2}, 2},
		{[]int64{-10, 0, 10}, 0},
	}
	for _, tt := range tests {
		in := append([]int64(nil), tt.in...)
		if got := median(in); got != tt.want {
			t.Errorf("median(%v) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestTopK(t *testing.T) {
	tk := NewTopK(3)
	tk.Offer(1, 10)
	tk.Offer(2, 20)
	tk.Offer(3, 30)
	tk.Offer(4, 5) // below the minimum: rejected
	items := tk.Items()
	if len(items) != 3 || items[0].Key != 3 || items[1].Key != 2 || items[2].Key != 1 {
		t.Fatalf("Items = %+v", items)
	}
	tk.Offer(5, 40) // evicts key 1
	items = tk.Items()
	if items[0].Key != 5 {
		t.Fatalf("after eviction Items[0] = %+v", items[0])
	}
	for _, it := range items {
		if it.Key == 1 {
			t.Fatal("evicted key still tracked")
		}
	}
	// Updating an already-tracked key replaces its estimate.
	tk.Offer(2, 100)
	if items := tk.Items(); items[0].Key != 2 || items[0].Estimate != 100 {
		t.Fatalf("update of tracked key: %+v", items)
	}
}

func TestTopKPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTopK(0) did not panic")
		}
	}()
	NewTopK(0)
}

func TestTxCountSketchMatchesPlain(t *testing.T) {
	m := stm.NewMemory(5*512 + 8)
	txcs, err := NewTxCountSketch(m, 5, 512, 42)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewCountSketch(5, 512, 42)
	src := detrand.New(3)
	for i := 0; i < 2000; i++ {
		k := uint64(src.Intn(100))
		plain.Update(k, 1)
		tx := m.Begin(int64(i))
		if err := txcs.Update(tx, k, 1); err != nil {
			t.Fatal(err)
		}
		if err := tx.Complete(); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx := m.Begin(1 << 30)
	defer tx.Abort()
	for k := uint64(0); k < 100; k++ {
		want := plain.Estimate(k)
		got, err := txcs.Estimate(tx, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("key %d: tx estimate %d != plain %d", k, got, want)
		}
	}
}

func TestTxCountSketchBadDims(t *testing.T) {
	m := stm.NewMemory(8)
	if _, err := NewTxCountSketch(m, 0, 4, 1); err == nil {
		t.Fatal("bad dims accepted")
	}
	if _, err := NewTxCountSketch(m, 4, 4, 1); err == nil {
		t.Fatal("oversized sketch accepted")
	}
}

func BenchmarkCountSketchUpdate(b *testing.B) {
	cs := NewCountSketch(5, 4096, 1)
	for i := 0; i < b.N; i++ {
		cs.Update(uint64(i%1000), 1)
	}
}

func BenchmarkTxCountSketchUpdate(b *testing.B) {
	m := stm.NewMemory(5*4096 + 8)
	cs, err := NewTxCountSketch(m, 5, 4096, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx := m.Begin(int64(i))
		if err := cs.Update(tx, uint64(i%1000), 1); err != nil {
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

// TestEstimateAllocs: up to medianInline rows are estimated and sorted on
// the stack; a deeper sketch still gets the right answer from the heap.
func TestEstimateAllocs(t *testing.T) {
	cs := NewCountSketch(8, 256, 42)
	cs.Update(7, 100)
	m := stm.NewMemory(8 * 256)
	txcs, err := NewTxCountSketch(m, 8, 256, 42)
	if err != nil {
		t.Fatal(err)
	}
	tx := m.Begin(1)
	defer tx.Abort()
	if err := txcs.Update(tx, 7, 100); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if got := cs.Estimate(7); got != 100 {
			t.Fatalf("Estimate(7) = %d, want 100", got)
		}
	}); allocs != 0 {
		t.Errorf("CountSketch.Estimate at depth 8: %.1f allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if got, err := txcs.Estimate(tx, 7); got != 100 || err != nil {
			t.Fatalf("tx Estimate(7) = %d, %v, want 100", got, err)
		}
	}); allocs != 0 {
		t.Errorf("TxCountSketch.Estimate at depth 8: %.1f allocs, want 0", allocs)
	}
	deep := NewCountSketch(medianInline+1, 256, 42)
	deep.Update(7, 100)
	if got := deep.Estimate(7); got != 100 {
		t.Fatalf("Estimate(7) at depth %d = %d, want 100", medianInline+1, got)
	}
}
