package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Lifecycle phases recorded by the Tracer. One event flowing through the
// engine produces (at minimum) ingress → exec → spec_out/final_out →
// commit, with finalize/revoke/abort phases appearing when speculation
// resolves or fails. externalize is recorded by the process boundary
// (sink subscriber) when an output leaves the system. clock and epoch are
// process-level records used by offline merging: clock is the per-process
// header stamped at tracer creation, epoch marks a partition (re)build so
// spans can be attributed to the right incarnation after a failover.
const (
	PhaseIngress     = "ingress"     // event admitted by a node's dispatcher
	PhaseExec        = "exec"        // one (speculative) execution finished
	PhaseSpecOut     = "spec_out"    // output sent downstream speculative
	PhaseFinalOut    = "final_out"   // output sent downstream final
	PhaseFinalize    = "finalize"    // FINALIZE issued for a prior spec output
	PhaseRevoke      = "revoke"      // output revoked (rollback cascade)
	PhaseCommit      = "commit"      // task committed in arrival order
	PhaseAbort       = "abort"       // task cancelled / rolled back
	PhaseExternalize = "externalize" // output left the system at a sink
	PhaseClock       = "clock"       // per-process tracer header record
	PhaseEpoch       = "epoch"       // partition epoch started on this process
)

// Span is one JSONL record written by the Tracer: a point event in an
// event's lifecycle. Offline tooling groups spans by trace id (or by
// Event for legacy traces) and subtracts timestamps for a per-phase
// latency breakdown (see docs/OBSERVABILITY.md and cmd/tracetool).
type Span struct {
	// TS is a wall-clock unix-nanosecond timestamp. (Traces written
	// before the clock header existed carried nanoseconds since tracer
	// start instead; both decode into a Span, and consumers distinguish
	// them by the presence of a PhaseClock record.)
	TS int64 `json:"ts_ns"`
	// Proc names the writing process ("" for single-process traces).
	Proc string `json:"proc,omitempty"`
	// Node is the graph node name where the phase happened ("" at
	// process boundaries such as externalization).
	Node string `json:"node,omitempty"`
	// Trace is the event-lineage trace id in lowercase hex ("" for
	// untraced spans and process-level records).
	Trace string `json:"trace,omitempty"`
	// Event identifies the subject event ("source:seq").
	Event string `json:"event,omitempty"`
	// Phase is one of the Phase* constants.
	Phase string `json:"phase"`
	// Info carries phase-specific detail (input index, abort cause,
	// causal parent as "from=<id>", ...).
	Info string `json:"info,omitempty"`
}

// Tracer records event-lifecycle spans as JSON lines. It is opt-in and
// deliberately not allocation-free: enabling it trades throughput for a
// complete per-event latency breakdown. A nil *Tracer is inert, so call
// sites guard with a plain nil check.
//
// Timestamps are wall-clock unix nanoseconds, computed as a wall-clock
// anchor captured at creation plus the monotonic elapsed time since, so
// they are monotonic within a process and comparable across processes up
// to host clock skew. The constructor writes one PhaseClock header record
// carrying the anchor, which offline merging uses to align files.
type Tracer struct {
	proc      string
	base      int64     // unix nanos at creation
	start     time.Time // monotonic anchor
	threshold atomic.Uint64
	autoFlush atomic.Bool
	count     atomic.Uint64

	// mirror, when set, receives a copy of every kept span after it is
	// written — the flight recorder samples lifecycle evidence from it.
	mirror atomic.Pointer[func(Span)]

	mu  sync.Mutex
	buf *bufio.Writer
}

// NewTracerProc starts a tracer writing JSONL spans to w, labeled with a
// process name stamped on every span so multi-process traces can be
// merged without relying on file names. The clock header record is
// written immediately. The caller owns w and must call Flush before
// closing it.
func NewTracerProc(w io.Writer, proc string) *Tracer {
	now := time.Now()
	t := &Tracer{
		proc:  proc,
		base:  now.UnixNano(),
		start: now,
		buf:   bufio.NewWriter(w),
	}
	t.threshold.Store(math.MaxUint64) // keep every trace by default
	t.write(Span{
		TS:    t.base,
		Proc:  proc,
		Phase: PhaseClock,
		Info:  fmt.Sprintf("unix_ns=%d pid=%d", t.base, os.Getpid()),
	})
	return t
}

// SetSampling sets the head-based sampling rate in [0, 1]: a trace id is
// kept iff it falls under rate·2⁶⁴, so every process keeps the same
// subset of traces (trace ids are well-mixed hashes) and sampled
// lineages stay complete end to end. Untraced spans (trace id 0) and
// process-level records are always kept. Safe to call concurrently.
func (t *Tracer) SetSampling(rate float64) {
	if t == nil {
		return
	}
	switch {
	case rate >= 1:
		t.threshold.Store(math.MaxUint64)
	case rate <= 0:
		t.threshold.Store(0)
	default:
		t.threshold.Store(uint64(rate * float64(math.MaxUint64)))
	}
}

// SetAutoFlush makes every record flush through to the underlying writer.
// Cluster processes enable it so a SIGKILL loses at most one torn final
// line instead of a buffer full of spans.
func (t *Tracer) SetAutoFlush(on bool) {
	if t == nil {
		return
	}
	t.autoFlush.Store(on)
}

// Keeps reports whether spans for the given trace id pass the sampling
// filter. Call sites can use it to skip building span info strings for
// sampled-out traces.
func (t *Tracer) Keeps(trace uint64) bool {
	if t == nil {
		return false
	}
	return trace == 0 || trace <= t.threshold.Load()
}

// Record writes one untraced span. Safe for concurrent use; nil
// receivers are no-ops.
func (t *Tracer) Record(node, event, phase, info string) {
	t.RecordTrace(node, event, 0, phase, info)
}

// RecordTrace writes one span bound to an event-lineage trace id. Spans
// whose trace id is filtered out by SetSampling are dropped before any
// allocation. Safe for concurrent use; nil receivers are no-ops.
func (t *Tracer) RecordTrace(node, event string, trace uint64, phase, info string) {
	if t == nil {
		return
	}
	if trace != 0 && trace > t.threshold.Load() {
		return
	}
	s := Span{
		TS:    t.base + time.Since(t.start).Nanoseconds(),
		Proc:  t.proc,
		Node:  node,
		Event: event,
		Phase: phase,
		Info:  info,
	}
	if trace != 0 {
		s.Trace = strconv.FormatUint(trace, 16)
	}
	t.write(s)
	t.count.Add(1)
	if m := t.mirror.Load(); m != nil {
		(*m)(s)
	}
}

// SetMirror installs a secondary consumer that observes every kept span
// (sampled-out spans never reach it). The consumer must be cheap and
// must not block — it runs on the recording goroutine. Nil uninstalls.
// Safe to call concurrently; nil receivers are no-ops.
func (t *Tracer) SetMirror(fn func(Span)) {
	if t == nil {
		return
	}
	if fn == nil {
		t.mirror.Store(nil)
		return
	}
	t.mirror.Store(&fn)
}

// write marshals and appends one record (header or span).
func (t *Tracer) write(s Span) {
	line, err := json.Marshal(s)
	if err != nil {
		return // a Span of plain strings cannot fail to marshal
	}
	t.mu.Lock()
	t.buf.Write(line)
	t.buf.WriteByte('\n')
	if t.autoFlush.Load() {
		t.buf.Flush()
	}
	t.mu.Unlock()
}

// Count returns the number of spans recorded (the clock header record is
// not counted).
func (t *Tracer) Count() uint64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Flush drains buffered spans to the underlying writer.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.buf.Flush()
}
