package flightrec

import (
	"fmt"
	"sync/atomic"

	"streammine/internal/metrics"
)

// def is the process-wide recorder. Sources (cluster lifecycle, chaos
// arms, the span mirror) record through the package-level helpers, which
// are no-ops until Enable installs a recorder — production binaries that
// never opt in pay a single atomic load per call site.
var def atomic.Pointer[Recorder]

// Enable installs the process-wide recorder (idempotent: a second call
// returns the existing one).
func Enable(size int) *Recorder {
	r := New(size)
	if def.CompareAndSwap(nil, r) {
		return r
	}
	return def.Load()
}

// Record appends to the process-wide recorder (no-op when disabled).
func Record(kind Kind, detail string) { def.Load().Record(kind, detail) }

// Recordf formats and appends to the process-wide recorder. It allocates
// for the format step, so it is meant for control-plane sites (lifecycle
// transitions, chaos arms) — use Record on anything hot. When
// recording is disabled the format is skipped entirely.
func Recordf(kind Kind, format string, args ...any) {
	r := def.Load()
	if r == nil {
		return
	}
	r.Record(kind, fmt.Sprintf(format, args...))
}

// spanEvery samples one of every spanEvery mirrored tracer spans into the
// ring: spans are per-event, so an unsampled mirror would wash every
// lifecycle transition out of the fixed ring within milliseconds.
const spanEvery = 64

var spanSeq atomic.Uint64

// SpanMirror is a metrics.Tracer mirror hook: it records every
// spanEvery-th kept span into the process-wide recorder. Allocation-free
// (Record3 copies the span fields straight into the slot).
func SpanMirror(s metrics.Span) {
	r := def.Load()
	if r == nil {
		return
	}
	if spanSeq.Add(1)%spanEvery != 0 {
		return
	}
	r.Record3(KindSpan, s.Node, s.Phase, s.Event)
}

// RegisterMetrics exposes the recorder's counters as flightrec_* series
// (documented in docs/OBSERVABILITY.md).
func RegisterMetrics(r *Recorder, reg *metrics.Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.CounterFunc("flightrec_records_total",
		"Flight-recorder entries recorded (including ring-overwritten ones).",
		nil, r.Records)
	reg.CounterFunc("flightrec_snapshots_total",
		"Flight-recorder snapshots written to disk.",
		nil, r.snaps.Load)
	reg.CounterFunc("flightrec_snapshot_errors_total",
		"Flight-recorder snapshot writes that failed.",
		nil, r.snapErrs.Load)
}
