package detrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSourceDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestSourceSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collided %d/100 times", same)
	}
}

func TestStateRestoreResumesSequence(t *testing.T) {
	src := New(7)
	for i := 0; i < 10; i++ {
		src.Uint64()
	}
	saved := src.State()
	want := []uint64{src.Uint64(), src.Uint64(), src.Uint64()}
	src.Restore(saved)
	for i, w := range want {
		if got := src.Uint64(); got != w {
			t.Fatalf("draw %d after restore: got %d want %d", i, got, w)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	src := New(9)
	for _, n := range []int{1, 2, 7, 1000} {
		for i := 0; i < 200; i++ {
			if v := src.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	src := New(11)
	for i := 0; i < 1000; i++ {
		if v := src.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(5)
	child := parent.Fork()
	// A forked child with the same parent state is deterministic.
	parent2 := New(5)
	child2 := parent2.Fork()
	for i := 0; i < 100; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatal("fork is not deterministic")
		}
	}
}

func TestZipfSkew(t *testing.T) {
	src := New(99)
	z := NewZipf(src, 100, 1.0)
	counts := make([]int, 100)
	const draws = 20000
	for i := 0; i < draws; i++ {
		v := z.Draw()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate rank 50 heavily under theta=1.
	if counts[0] < counts[50]*5 {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
	// Rank 0 should be roughly draws/H(100) ≈ draws/5.19.
	expected := float64(draws) / 5.187
	if math.Abs(float64(counts[0])-expected) > expected*0.2 {
		t.Fatalf("counts[0]=%d, expected ≈ %.0f", counts[0], expected)
	}
}

func TestZipfUniformTheta0(t *testing.T) {
	z := NewZipf(New(3), 10, 0)
	counts := make([]int, 10)
	for i := 0; i < 10000; i++ {
		counts[z.Draw()]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Fatalf("theta=0 counts[%d]=%d, want ≈1000", i, c)
		}
	}
}

// TestQuickUint64FullRange checks the generator hits both halves of the
// output space regardless of seed (a sanity property of SplitMix64).
func TestQuickUint64FullRange(t *testing.T) {
	f := func(seed uint64) bool {
		src := New(seed)
		lowSeen, highSeen := false, false
		for i := 0; i < 64 && !(lowSeen && highSeen); i++ {
			if src.Uint64() < 1<<63 {
				lowSeen = true
			} else {
				highSeen = true
			}
		}
		return lowSeen && highSeen
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		src.Uint64()
	}
}
