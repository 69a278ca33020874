package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// readSpans decodes a JSONL trace into spans.
func readSpans(r io.Reader) ([]Span, error) {
	var out []Span
	for dec := json.NewDecoder(r); dec.More(); {
		var s Span
		if err := dec.Decode(&s); err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

func TestTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	before := time.Now().UnixNano()
	tr := NewTracerProc(&buf, "w1")
	tr.Record("proc", "1:7", PhaseIngress, "input=0")
	tr.Record("proc", "1:7", PhaseExec, "")
	tr.RecordTrace("proc", "1:7", 0xabcd, PhaseCommit, "")
	tr.Record("", "2:9", PhaseExternalize, "")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if tr.Count() != 4 {
		t.Fatalf("Count = %d, want 4 (clock header not counted)", tr.Count())
	}
	if n := strings.Count(buf.String(), "\n"); n != 5 {
		t.Fatalf("trace has %d lines, want 5 (clock header + 4 spans)", n)
	}
	spans, err := readSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 5 {
		t.Fatalf("parsed %d spans, want 5", len(spans))
	}
	if spans[0].Phase != PhaseClock || spans[0].Proc != "w1" ||
		!strings.Contains(spans[0].Info, "unix_ns=") {
		t.Fatalf("header = %+v", spans[0])
	}
	if spans[1].Phase != PhaseIngress || spans[1].Node != "proc" || spans[1].Event != "1:7" {
		t.Fatalf("span 1 = %+v", spans[1])
	}
	if spans[3].Trace != "abcd" {
		t.Fatalf("span 3 trace = %q, want abcd", spans[3].Trace)
	}
	for i, s := range spans {
		if s.TS < before {
			t.Fatalf("span %d ts %d is not wall-clock (before %d)", i, s.TS, before)
		}
		if s.Proc != "w1" {
			t.Fatalf("span %d proc = %q", i, s.Proc)
		}
		if i > 0 && s.TS < spans[i-1].TS {
			t.Fatalf("timestamps not monotone: %d then %d", spans[i-1].TS, s.TS)
		}
	}
	if spans[4].Phase != PhaseExternalize || spans[4].Node != "" {
		t.Fatalf("span 4 = %+v", spans[4])
	}
}

// Legacy traces (relative timestamps, no clock header, no proc/trace
// fields) must still parse.
func TestReadSpansLegacyForm(t *testing.T) {
	legacy := `{"ts_ns":120,"node":"a","event":"1:0","phase":"ingress","info":"input=0"}
{"ts_ns":950,"node":"a","event":"1:0","phase":"commit"}
`
	spans, err := readSpans(strings.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].TS != 120 || spans[1].Phase != PhaseCommit {
		t.Fatalf("legacy parse = %+v", spans)
	}
	if spans[0].Proc != "" || spans[0].Trace != "" {
		t.Fatalf("legacy span grew fields: %+v", spans[0])
	}
}

func TestTracerNilIsInert(t *testing.T) {
	var tr *Tracer
	tr.Record("n", "1:1", PhaseExec, "") // must not panic
	tr.RecordTrace("n", "1:1", 7, PhaseExec, "")
	tr.SetSampling(0.5)
	tr.SetAutoFlush(true)
	if tr.Keeps(7) {
		t.Fatal("nil tracer keeps spans")
	}
	if tr.Count() != 0 {
		t.Fatal("nil tracer reported spans")
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestTracerSampling(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracerProc(&buf, "")
	tr.SetSampling(0)
	tr.RecordTrace("n", "1:1", 42, PhaseExec, "")
	tr.Record("n", "", PhaseEpoch, "partition=0") // untraced: always kept
	if tr.Count() != 1 {
		t.Fatalf("count=%d, want 1", tr.Count())
	}
	if tr.Keeps(42) || !tr.Keeps(0) {
		t.Fatal("Keeps disagrees with sampling filter")
	}
	tr.SetSampling(1)
	if !tr.Keeps(42) {
		t.Fatal("rate 1 must keep everything")
	}
	tr.RecordTrace("n", "1:1", 42, PhaseExec, "")
	if tr.Count() != 2 {
		t.Fatalf("count=%d, want 2", tr.Count())
	}
	// A 50% threshold keeps lows and drops highs of the id space.
	tr.SetSampling(0.5)
	if !tr.Keeps(1) || tr.Keeps(^uint64(0)) {
		t.Fatal("rate 0.5 threshold misplaced")
	}
}

func TestTracerAutoFlush(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracerProc(&buf, "p")
	tr.SetAutoFlush(true)
	tr.RecordTrace("n", "1:1", 9, PhaseExec, "")
	// No Flush call: the header and the span must already be through.
	if n := strings.Count(buf.String(), "\n"); n != 2 {
		t.Fatalf("autoflush wrote %d complete lines, want 2", n)
	}
}

func TestTracerConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracerProc(&buf, "")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				tr.RecordTrace("n", "1:1", uint64(j+1), PhaseExec, "")
			}
		}()
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := readSpans(&buf)
	if err != nil {
		t.Fatalf("concurrent writes interleaved badly: %v", err)
	}
	if len(spans) != 801 { // clock header + 800 spans
		t.Fatalf("parsed %d spans, want 801", len(spans))
	}
}

// TestTracingOffZeroAlloc pins the acceptance bar for disabled tracing:
// the guard pattern the engine uses at every call site — nil-check, then
// Keeps before building span info — must not allocate at all when the
// tracer is off, and neither must a nil histogram observation. (The HDR
// side of the hot path is covered by TestHDRRecordAllocFree.)
func TestTracingOffZeroAlloc(t *testing.T) {
	var tr *Tracer // tracing off: engine holds a nil tracer
	var h *HDR     // metrics off: nil histogram handles
	allocs := testing.AllocsPerRun(1000, func() {
		if tr != nil && tr.Keeps(42) {
			tr.RecordTrace("node", "1:2", 42, PhaseExec, "unreachable")
		}
		tr.Record("node", "1:2", PhaseCommit, "")
		h.Observe(123)
		h.Record(456)
	})
	if allocs != 0 {
		t.Fatalf("tracing-off hot path allocates %.1f per op, want 0", allocs)
	}
}

// BenchmarkTracingOffHotPath measures the same disabled-instrumentation
// path for the perf archive; b.ReportAllocs keeps the zero on record.
func BenchmarkTracingOffHotPath(b *testing.B) {
	var tr *Tracer
	var h *HDR
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr != nil && tr.Keeps(uint64(i)) {
			tr.RecordTrace("node", "1:2", uint64(i), PhaseExec, "unreachable")
		}
		h.Observe(int64(i))
	}
}
