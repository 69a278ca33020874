// Package metricstest holds the test helper behind the "registered ⇔
// documented" rule of docs/OBSERVABILITY.md: a series a package registers
// must be named in the handbook that owns its prefix.
package metricstest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"streammine/internal/metrics"
)

// Documented fails t for every series in reg whose name starts with
// prefix and does not appear in docs/<doc>, and when fewer than min
// distinct names carry the prefix — a check over nothing proves nothing.
// It reads the handbook relative to a package two levels below the
// repository root (internal/<pkg>, cmd/<bin>).
func Documented(t testing.TB, reg *metrics.Registry, prefix, doc string, min int) {
	t.Helper()
	text, err := os.ReadFile(filepath.Join("..", "..", "docs", doc))
	if err != nil {
		t.Fatalf("read metric inventory: %v", err)
	}
	seen := make(map[string]bool)
	for _, p := range reg.Snapshot() {
		if !strings.HasPrefix(p.Name, prefix) || seen[p.Name] {
			continue
		}
		seen[p.Name] = true
		if !strings.Contains(string(text), p.Name) {
			t.Errorf("series %s is registered but not documented in docs/%s", p.Name, doc)
		}
	}
	if len(seen) < min {
		t.Errorf("only %d %s* series registered, want at least %d", len(seen), prefix, min)
	}
}
