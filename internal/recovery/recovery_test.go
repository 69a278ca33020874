package recovery

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"streammine/internal/metrics"
)

// ms converts a test-scale millisecond offset into nanoseconds. All
// timeline tests anchor at 1s so zero-valued StartNs stays meaningful.
func ms(v int64) int64 { return 1_000_000_000 + v*1_000_000 }

// trail writes the spans through a tracer as RecordTransition records
// and reads the JSONL back, the way a trace file is loaded.
func trail(t *testing.T, spans ...Span) []metrics.Span {
	t.Helper()
	var buf bytes.Buffer
	tr := metrics.NewTracerProc(&buf, "test")
	for _, s := range spans {
		RecordTransition(tr, s)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var out []metrics.Span
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var r metrics.Span
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// coordSpans are the coordinator's detect (40ms) and decide (5ms)
// windows for an incident that moved the given partitions.
func coordSpans(epoch int, moved ...int) []Span {
	return []Span{
		{Phase: PhaseDetect, Partition: -1, Epoch: epoch, Worker: "w2", StartNs: ms(0), EndNs: ms(40)},
		{Phase: PhaseDecide, Partition: -1, Epoch: epoch, Worker: "w2", StartNs: ms(40), EndNs: ms(45), Moved: moved},
	}
}

// workerSpans is a full post-decide phase chain for partition 1: build
// restore, refill, durable restore, replay.
func workerSpans(epoch int) []Span {
	return []Span{
		{Phase: PhaseRestore, Partition: 1, Epoch: epoch, Worker: "w1", StartNs: ms(45), EndNs: ms(50)},
		{Phase: PhaseRefill, Partition: 1, Epoch: epoch, Worker: "w1", StartNs: ms(50), EndNs: ms(55), Records: 2},
		{Phase: PhaseRestore, Partition: 1, Epoch: epoch, Worker: "w1", StartNs: ms(55), EndNs: ms(75), Bytes: 4096, Records: 120, Drops: 3},
		{Phase: PhaseReplay, Partition: 1, Epoch: epoch, Worker: "w1", StartNs: ms(75), EndNs: ms(95), Events: 200, Drops: 7},
	}
}

var catchup = Span{Phase: PhaseCatchup, Partition: 1, Epoch: 2, Worker: "w1", StartNs: ms(95), EndNs: ms(145), Events: 900}

func TestIncidentsStitchTrail(t *testing.T) {
	spans := append(coordSpans(2, 1), workerSpans(2)...)
	rep := Incidents(trail(t, spans...))
	if len(rep.Incidents) != 1 {
		t.Fatalf("incidents = %d, want 1", len(rep.Incidents))
	}
	if inc := rep.Incidents[0]; inc.Complete || inc.EndNs != 0 {
		t.Fatalf("incident complete (end %d) before catch-up closed", inc.EndNs)
	}

	// The replay record is written at a later STATUS tick than the
	// catch-up close: record order is not span order.
	spans = append(coordSpans(2, 1), workerSpans(2)[:3]...)
	spans = append(spans, catchup, workerSpans(2)[3])
	inc := Incidents(trail(t, spans...)).Incidents[0]
	if !inc.Complete {
		t.Fatalf("incident not complete after catch-up on every moved partition")
	}
	if inc.Victim != "w2" || inc.Epoch != 2 || !reflect.DeepEqual(inc.Partitions, []int{1}) {
		t.Errorf("victim/epoch/partitions = %q/%d/%v, want w2/2/[1]", inc.Victim, inc.Epoch, inc.Partitions)
	}
	if inc.StartNs != ms(0) || inc.DetectedNs != ms(40) || inc.EndNs != ms(145) {
		t.Errorf("start/detected/end = %d/%d/%d, want %d/%d/%d",
			inc.StartNs, inc.DetectedNs, inc.EndNs, ms(0), ms(40), ms(145))
	}
	if inc.TotalMs != 145 {
		t.Errorf("TotalMs = %v, want 145", inc.TotalMs)
	}
	want := map[string]float64{
		PhaseDetect: 40, PhaseDecide: 5, PhaseRestore: 25,
		PhaseRefill: 5, PhaseReplay: 20, PhaseCatchup: 50,
	}
	if !reflect.DeepEqual(inc.PhaseMs, want) {
		t.Errorf("PhaseMs = %v, want %v", inc.PhaseMs, want)
	}
	// Disjoint phases must sum to the end-to-end total.
	var sum float64
	for _, v := range inc.PhaseMs {
		sum += v
	}
	if sum != inc.TotalMs {
		t.Errorf("phase sum %v != TotalMs %v", sum, inc.TotalMs)
	}
	if inc.DominantPhase != PhaseCatchup {
		t.Errorf("DominantPhase = %q, want catchup", inc.DominantPhase)
	}
	if inc.RestoreBytes != 4096 || inc.LogRecords != 120 {
		t.Errorf("restore attribution = %d bytes / %d records, want 4096/120", inc.RestoreBytes, inc.LogRecords)
	}
	if inc.ReplayEvents != 200 || inc.ReplayDrops != 7 {
		t.Errorf("replay attribution = %d events / %d drops, want 200/7", inc.ReplayEvents, inc.ReplayDrops)
	}
	if inc.ReplayEventsPerSec != 10000 { // 200 events over 20ms
		t.Errorf("ReplayEventsPerSec = %v, want 10000", inc.ReplayEventsPerSec)
	}
	// The record is lossless: the folded spans are the recorded ones,
	// sorted by start time.
	wantSpans := append(coordSpans(2, 1), workerSpans(2)...)
	wantSpans = append(wantSpans, catchup)
	if !reflect.DeepEqual(inc.Spans, wantSpans) {
		t.Errorf("spans:\n got  %+v\n want %+v", inc.Spans, wantSpans)
	}
}

func TestPhaseUnionCountsOverlapOnce(t *testing.T) {
	// Two partitions restoring in parallel: 12..40 and 20..50 overlap,
	// union is 12..50 = 38ms, not 58ms.
	inc := Incidents(trail(t,
		Span{Phase: PhaseDetect, Partition: -1, Epoch: 3, Worker: "w1", StartNs: ms(0), EndNs: ms(10)},
		Span{Phase: PhaseDecide, Partition: -1, Epoch: 3, Worker: "w1", StartNs: ms(10), EndNs: ms(12), Moved: []int{0, 1}},
		Span{Phase: PhaseRestore, Partition: 0, Epoch: 3, Worker: "w2", StartNs: ms(12), EndNs: ms(40)},
		Span{Phase: PhaseRestore, Partition: 1, Epoch: 3, Worker: "w3", StartNs: ms(20), EndNs: ms(50)},
	)).Incidents[0]
	if got := inc.PhaseMs[PhaseRestore]; got != 38 {
		t.Errorf("restore union = %v ms, want 38", got)
	}
	ivs, ns := Union(inc.Spans)
	if want := [][2]int64{{ms(0), ms(50)}}; !reflect.DeepEqual(ivs, want) || ns != ms(50)-ms(0) {
		t.Errorf("Union = %v (%dns), want %v (%dns)", ivs, ns, want, ms(50)-ms(0))
	}
}

func TestPhaseMsWithinClipsToWindow(t *testing.T) {
	spans := append(coordSpans(2, 1), workerSpans(2)...)
	inc := Incidents(trail(t, append(spans, catchup)...)).Incidents[0]

	// Window [20, 120]: detect clipped to 20ms of its 40, catchup to 25
	// of its 50; fully-inside phases unchanged; nothing outside counted.
	got := inc.PhaseMsWithin(ms(20), ms(120))
	want := map[string]float64{
		PhaseDetect: 20, PhaseDecide: 5, PhaseRestore: 25,
		PhaseRefill: 5, PhaseReplay: 20, PhaseCatchup: 25,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("clipped PhaseMs = %v, want %v", got, want)
	}
	if empty := inc.PhaseMsWithin(ms(200), ms(300)); len(empty) != 0 {
		t.Errorf("window past the incident should clip everything, got %v", empty)
	}
}

func TestFoldDropsStaleAndUnknownSpans(t *testing.T) {
	records := trail(t,
		// The initial deploy: epoch-1 spans with no detect record open
		// no incident.
		Span{Phase: PhaseRestore, Partition: 0, Epoch: 1, Worker: "w1", StartNs: ms(-900), EndNs: ms(-890)},
		Span{Phase: PhaseRefill, Partition: 0, Epoch: 1, Worker: "w1", StartNs: ms(-890), EndNs: ms(-880), Records: 1},
		coordSpans(2, 1)[0], coordSpans(2, 1)[1],
		// Pre-incident span retagged to the new epoch by an epoch
		// refresh of a surviving partition: must not join the incident.
		Span{Phase: PhaseRestore, Partition: 0, Epoch: 2, Worker: "w1", StartNs: ms(-500), EndNs: ms(-400)},
		// Span for an epoch with no detect record: ignored.
		Span{Phase: PhaseRestore, Partition: 1, Epoch: 99, Worker: "w1", StartNs: ms(45), EndNs: ms(50)},
	)
	// A recovery record of the older rounded format carries no span
	// window and is skipped.
	records = append(records, metrics.Span{TS: ms(60), Node: "p1", Phase: metrics.PhaseRecovery, Info: "replay epoch=2 ms=2.0"})
	rep := Incidents(records)
	if len(rep.Incidents) != 1 {
		t.Fatalf("incidents = %d, want 1 (epoch 2)", len(rep.Incidents))
	}
	inc := rep.Incidents[0]
	if len(inc.Spans) != 2 { // detect + decide only
		t.Errorf("spans = %+v, want detect+decide only", inc.Spans)
	}
	if inc.Complete {
		t.Error("incident without catch-up reported complete")
	}
}
