package sketch

import (
	"math"
	"testing"

	"streammine/internal/detrand"
	"streammine/internal/stm"
)

// hllEstimateOf adds keys to a fresh TxHyperLogLog in one transaction and
// returns its estimate.
func hllEstimateOf(t *testing.T, precision uint, seed uint64, keys []uint64) uint64 {
	t.Helper()
	mem := stm.NewMemory(1<<precision + 8)
	h, err := NewTxHyperLogLog(mem, precision, seed)
	if err != nil {
		t.Fatal(err)
	}
	tx := mem.Begin(1)
	defer tx.Abort()
	for _, k := range keys {
		if err := h.Add(tx, k); err != nil {
			t.Fatal(err)
		}
	}
	est, err := h.Estimate(tx)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{100, 1000, 50000} {
		src := detrand.New(uint64(n))
		seen := make(map[uint64]bool, n)
		var keys []uint64
		for len(seen) < n {
			k := src.Uint64()
			seen[k] = true
			// Duplicates must not affect the estimate.
			keys = append(keys, k, k)
		}
		est := float64(hllEstimateOf(t, 12, 7, keys))
		relErr := math.Abs(est-float64(n)) / float64(n)
		// Standard error at p=12 is ~1.6%; allow 6%.
		if relErr > 0.06 {
			t.Errorf("n=%d: estimate %.0f (rel err %.3f)", n, est, relErr)
		}
	}
}

func TestHLLEmpty(t *testing.T) {
	if got := hllEstimateOf(t, 8, 1, nil); got != 0 {
		t.Fatalf("empty estimate = %d", got)
	}
}

func TestHLLSmallRange(t *testing.T) {
	est := hllEstimateOf(t, 10, 3, []uint64{0, 1, 2, 3, 4})
	if est < 4 || est > 6 {
		t.Fatalf("estimate for 5 keys = %d (linear counting should be near-exact)", est)
	}
}

// TestTxHLLMatchesPlain checks the transactional registers, updated one
// committed transaction per key, against a plain fold of the same keys.
func TestTxHLLMatchesPlain(t *testing.T) {
	mem := stm.NewMemory(1<<10 + 8)
	txh, err := NewTxHyperLogLog(mem, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]uint8, 1<<10)
	src := detrand.New(42)
	for i := 0; i < 5000; i++ {
		k := src.Uint64() % 2000
		idx, rank := hllParts(10, 5, k)
		plain[idx] = max(plain[idx], rank)
		tx := mem.Begin(int64(i))
		if err := txh.Add(tx, k); err != nil {
			t.Fatal(err)
		}
		if err := tx.Complete(); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	tx := mem.Begin(1 << 40)
	defer tx.Abort()
	got, err := txh.Estimate(tx)
	if err != nil {
		t.Fatal(err)
	}
	if want := hllEstimate(plain); got != want {
		t.Fatalf("tx estimate %d != plain %d", got, want)
	}
}

func TestTxHLLBadPrecision(t *testing.T) {
	if _, err := NewTxHyperLogLog(stm.NewMemory(64), 20, 1); err == nil {
		t.Fatal("precision 20 accepted")
	}
}
