package tracetool

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streammine/internal/metrics"
)

// twoProcTrace builds a two-process trace for one event lineage crossing
// a bridge: ingress/exec/spec_out on w1, ingress/exec/commit/finalize/
// externalize on w2, with wall-clock-style timestamps.
func twoProcTrace(t *testing.T) (*File, *File) {
	t.Helper()
	var b1, b2 bytes.Buffer
	base := time.Now().UnixNano()
	mk := func(buf *bytes.Buffer, proc string, off int64, node, trace, event, phase, info string) {
		t.Helper()
		line, err := json.Marshal(metrics.Span{
			TS: base + off, Proc: proc, Node: node, Trace: trace, Event: event, Phase: phase, Info: info,
		})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	mk(&b1, "w1", 0, "", "", "", metrics.PhaseClock, "unix_ns=1 pid=10")
	mk(&b1, "w1", 5, "p0", "", "", metrics.PhaseEpoch, "partition=0 epoch=1 worker=w1 nodes=2")
	mk(&b1, "w1", 100, "src", "ab12", "1:7", metrics.PhaseIngress, "input=0 spec=false")
	mk(&b1, "w1", 200, "map", "ab12", "1:7", metrics.PhaseExec, "")
	mk(&b1, "w1", 300, "map", "ab12", "100:7", metrics.PhaseSpecOut, "from=1:7")
	mk(&b2, "w2", 10, "", "", "", metrics.PhaseClock, "unix_ns=11 pid=11")
	mk(&b2, "w2", 15, "p1", "", "", metrics.PhaseEpoch, "partition=1 epoch=1 worker=w2 nodes=1")
	mk(&b2, "w2", 400, "agg", "ab12", "100:7", metrics.PhaseIngress, "input=0 spec=true")
	mk(&b2, "w2", 500, "agg", "ab12", "100:7", metrics.PhaseExec, "")
	mk(&b2, "w2", 600, "agg", "ab12", "100:7", metrics.PhaseCommit, "")
	mk(&b2, "w2", 700, "agg", "ab12", "200:7", metrics.PhaseFinalize, "")
	mk(&b2, "w2", 800, "sink", "ab12", "200:7", metrics.PhaseExternalize, "")
	f1, err := Read(&b1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Read(&b2)
	if err != nil {
		t.Fatal(err)
	}
	return f1, f2
}

func TestMergeStitchesOneLineage(t *testing.T) {
	f1, f2 := twoProcTrace(t)
	set := Merge(f1, f2)
	lineages := set.Lineages()
	if len(lineages) != 1 {
		t.Fatalf("got %d lineages, want 1 (cross-process spans must stitch by trace id)", len(lineages))
	}
	l := lineages[0]
	if l.Trace != "ab12" {
		t.Fatalf("lineage trace = %q", l.Trace)
	}
	if len(l.Spans) != 8 {
		t.Fatalf("lineage has %d spans, want 8", len(l.Spans))
	}
	if !l.Complete() {
		t.Fatal("lineage with ingress+commit+externalize must be complete")
	}
	lat, ok := l.Latency()
	if !ok || lat != 700 {
		t.Fatalf("latency = %v ok=%v, want 700ns", lat, ok)
	}
	// Spans must be timeline-ordered across the two files.
	for i := 1; i < len(l.Spans); i++ {
		if l.Spans[i].TS < l.Spans[i-1].TS {
			t.Fatalf("merged spans out of order at %d", i)
		}
	}
	if errs := set.Validate(); len(errs) != 0 {
		t.Fatalf("valid trace reported violations: %v", errs)
	}
}

func TestCriticalPathAndReport(t *testing.T) {
	f1, f2 := twoProcTrace(t)
	set := Merge(f1, f2)
	l := set.Lineages()[0]
	steps := l.CriticalPath()
	if len(steps) != 8 {
		t.Fatalf("critical path has %d steps, want 8", len(steps))
	}
	var total time.Duration
	for _, st := range steps {
		total += st.Delta
	}
	if total != 700 {
		t.Fatalf("critical-path deltas sum to %v, want 700ns (first ingress to externalize)", total)
	}
	// The w1→w2 bridge hop is the 100ns delta into w2's ingress.
	if steps[3].Phase != metrics.PhaseIngress || steps[3].Proc != "w2" || steps[3].Delta != 100 {
		t.Fatalf("step 3 = %+v, want w2 ingress +100ns", steps[3])
	}

	rep := set.Analyze()
	if rep.Lineages != 1 || rep.Externalized != 1 || rep.Complete != 1 {
		t.Fatalf("report counts = %+v", rep)
	}
	if rep.E2E.Count != 1 || rep.E2E.Max != 700 {
		t.Fatalf("e2e stat = %+v", rep.E2E)
	}
	var sum bytes.Buffer
	rep.WriteSummary(&sum)
	for _, want := range []string{"externalized: 1", "ingress", "slowest lineage"} {
		if !strings.Contains(sum.String(), want) {
			t.Fatalf("summary missing %q:\n%s", want, sum.String())
		}
	}
}

func TestTornTailTolerated(t *testing.T) {
	f1, _ := twoProcTrace(t)
	var raw bytes.Buffer
	for _, sp := range f1.Spans {
		line, _ := json.Marshal(sp)
		raw.Write(line)
		raw.WriteByte('\n')
	}
	raw.WriteString(`{"ts_ns":123,"phase":"com`) // SIGKILL mid-write
	f, err := Read(&raw)
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if !f.TornTail {
		t.Fatal("TornTail not flagged")
	}
	if len(f.Spans) != len(f1.Spans) {
		t.Fatalf("intact prefix lost: %d of %d spans", len(f.Spans), len(f1.Spans))
	}
	// A malformed line mid-file is corruption, not a tear.
	var bad bytes.Buffer
	bad.WriteString("not json\n")
	line, _ := json.Marshal(f1.Spans[0])
	bad.Write(line)
	bad.WriteByte('\n')
	if _, err := Read(&bad); err == nil {
		t.Fatal("mid-file corruption must error")
	}
}

func TestValidateFlagsOrphanAndZombie(t *testing.T) {
	base := time.Now().UnixNano()
	mk := func(off int64, proc, node, trace, phase, info string) metrics.Span {
		return metrics.Span{TS: base + off, Proc: proc, Node: node, Trace: trace, Phase: phase, Info: info}
	}
	// Externalize with no ingress anywhere: orphan lineage.
	orphan := &File{Spans: []metrics.Span{
		mk(0, "w1", "sink", "ff01", metrics.PhaseExternalize, ""),
	}}
	if errs := Merge(orphan).Validate(); len(errs) != 1 {
		t.Fatalf("orphan lineage: got %v", errs)
	}

	// w1 owned partition 0 at epoch 1; w2 took it over at epoch 2. A w1
	// span stamped after the takeover is a zombie write.
	zombie := &File{Spans: []metrics.Span{
		mk(0, "w1", "p0", "", metrics.PhaseEpoch, "partition=0 epoch=1 worker=w1"),
		mk(10, "w1", "src", "aa", metrics.PhaseIngress, ""),
		mk(20, "w1", "src", "aa", metrics.PhaseCommit, ""),
		mk(100, "w2", "p0", "", metrics.PhaseEpoch, "partition=0 epoch=2 worker=w2"),
		mk(150, "w1", "src", "bb", metrics.PhaseExec, ""), // after takeover
		mk(200, "w2", "src", "aa", metrics.PhaseIngress, ""),
	}}
	errs := Merge(zombie).Validate()
	found := false
	for _, e := range errs {
		if strings.Contains(e.Error(), "zombie") {
			found = true
		}
	}
	if !found {
		t.Fatalf("zombie span not flagged: %v", errs)
	}
}

// A superseded worker may still log its own stop or failure after the
// takeover: process-level records are its trail, never zombie spans. A
// data span it writes at the same moment still is one.
func TestValidateExemptsProcessRecords(t *testing.T) {
	base := time.Now().UnixNano()
	mk := func(off int64, proc, node, trace, phase, info string) metrics.Span {
		return metrics.Span{TS: base + off, Proc: proc, Node: node, Trace: trace, Phase: phase, Info: info}
	}
	spans := []metrics.Span{
		mk(0, "w1", "p0", "", metrics.PhaseEpoch, "partition=0 epoch=1 worker=w1"),
		mk(100, "w2", "p0", "", metrics.PhaseEpoch, "partition=0 epoch=2 worker=w2"),
		mk(150, "w1", "p0", "", metrics.PhaseLifecycle, "failed epoch=1: bridge closed"),
		mk(150, "w1", "", "", metrics.PhaseLifecycle, "stop: run complete"),
		mk(150, "w1", "p0", "", metrics.PhaseRecovery, `replay epoch=1 start_ns=120 end_ns=140 worker="w1" bytes=0 records=0 events=3 drops=0`),
		mk(150, "w1", "", "", metrics.PhaseChaos, "off"),
	}
	if errs := Merge(&File{Spans: spans}).Validate(); len(errs) != 0 {
		t.Fatalf("process-level records flagged: %v", errs)
	}
	spans = append(spans, mk(150, "w1", "src", "bb", metrics.PhaseExec, ""))
	errs := Merge(&File{Spans: spans}).Validate()
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "zombie span: proc \"w1\" recorded exec") {
		t.Fatalf("data span after takeover: got %v, want one zombie exec", errs)
	}
}

// The trail is the process-level records of every file on one timeline,
// torn tail tolerated, with the data spans left out.
func TestWriteTrail(t *testing.T) {
	dir := t.TempDir()
	w1 := filepath.Join(dir, "w1.jsonl")
	var b bytes.Buffer
	tr := metrics.NewTracerProc(&b, "w1")
	tr.Record("p0", "", metrics.PhaseEpoch, "partition=0 epoch=1 worker=w1 nodes=2")
	tr.RecordTrace("src", "1:1", 7, metrics.PhaseIngress, "")
	tr.Record("p0", "", metrics.PhaseLifecycle, "running epoch=1 sources=1")
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	b.WriteString(`{"ts_ns":`) // SIGKILL mid-line
	if err := os.WriteFile(w1, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := Load(w1)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	set.WriteTrail(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || set.TornTails != 1 {
		t.Fatalf("trail has %d lines (torn tails %d), want clock, epoch, running:\n%s", len(lines), set.TornTails, out.String())
	}
	for i, want := range []string{"clock", "epoch=1 worker=w1", "running epoch=1"} {
		if !strings.Contains(lines[i], want) || !strings.Contains(lines[i], "w1") {
			t.Errorf("trail line %d = %q, want w1 and %q", i, lines[i], want)
		}
	}
}

func TestWriteChrome(t *testing.T) {
	f1, f2 := twoProcTrace(t)
	set := Merge(f1, f2)
	var out bytes.Buffer
	if err := set.WriteChrome(&out); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	var procs, slices, instants int
	for _, ev := range parsed.TraceEvents {
		switch ev["ph"] {
		case "M":
			if ev["name"] == "process_name" {
				procs++
			}
		case "X":
			slices++
		case "i":
			instants++
		}
	}
	if procs != 2 {
		t.Fatalf("chrome trace names %d processes, want 2", procs)
	}
	if slices == 0 || instants == 0 {
		t.Fatalf("chrome trace has %d slices, %d instants; want both > 0", slices, instants)
	}
}

func TestLegacyUntracedGroupsByEvent(t *testing.T) {
	base := time.Now().UnixNano()
	f := &File{Spans: []metrics.Span{
		{TS: base, Node: "src", Event: "1:1", Phase: metrics.PhaseIngress},
		{TS: base + 1, Node: "src", Event: "1:1", Phase: metrics.PhaseCommit},
		{TS: base + 2, Node: "src", Event: "1:2", Phase: metrics.PhaseIngress},
	}}
	lineages := Merge(f).Lineages()
	if len(lineages) != 2 {
		t.Fatalf("legacy grouping produced %d lineages, want 2", len(lineages))
	}
}
