// Package metricstest holds the test helpers over a metrics.Registry: the
// "registered ⇔ documented" rule of docs/OBSERVABILITY.md (a series a
// package registers must be named in the handbook that owns its prefix)
// and the read of one series' value.
package metricstest

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
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

// Value returns the value of the series name with exactly labels (nil
// when unlabeled; label values are plain strings), and whether reg has
// that series.
func Value(reg *metrics.Registry, name string, labels metrics.Labels) (float64, bool) {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i, k := range keys {
		keys[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	want := strings.Join(keys, ",")
	for _, p := range reg.Snapshot() {
		if p.Name == name && p.Labels == want {
			return p.Value, true
		}
	}
	return 0, false
}
