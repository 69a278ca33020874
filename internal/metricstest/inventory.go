// Package metricstest holds the test helper over a metrics.Registry that
// reads one series' value. That a registered series is documented is
// checked by cmd/doccheck.
package metricstest

import (
	"fmt"
	"sort"
	"strings"

	"streammine/internal/metrics"
)

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
