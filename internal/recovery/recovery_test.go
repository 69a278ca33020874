package recovery

import (
	"testing"

	"streammine/internal/metrics"
	"streammine/internal/metricstest"
)

// ms converts a test-scale millisecond offset into nanoseconds. All
// timeline tests anchor at 1s so zero-valued StartNs stays meaningful.
func ms(v int64) int64 { return 1_000_000_000 + v*1_000_000 }

// beginIncident opens an incident with a 40ms detect and 5ms decide
// window for one moved partition.
func beginIncident(a *Aggregator, epoch int) {
	a.Begin(epoch, "w2", []int{1},
		Span{Phase: PhaseDetect, Partition: -1, Epoch: epoch, StartNs: ms(0), EndNs: ms(40)},
		Span{Phase: PhaseDecide, Partition: -1, Epoch: epoch, StartNs: ms(40), EndNs: ms(45)})
}

// workerSpans is a full post-decide phase chain for partition 1: build
// restore, refill, durable restore, replay.
func workerSpans(epoch int) []Span {
	return []Span{
		{Phase: PhaseRestore, Partition: 1, Epoch: epoch, Worker: "w1", StartNs: ms(45), EndNs: ms(50)},
		{Phase: PhaseRefill, Partition: 1, Epoch: epoch, Worker: "w1", StartNs: ms(50), EndNs: ms(55), Records: 2},
		{Phase: PhaseRestore, Partition: 1, Epoch: epoch, Worker: "w1", StartNs: ms(55), EndNs: ms(75), Bytes: 4096, Records: 120},
		{Phase: PhaseReplay, Partition: 1, Epoch: epoch, Worker: "w1", StartNs: ms(75), EndNs: ms(95), Events: 200, Drops: 7},
	}
}

func TestAggregatorStitchesIncident(t *testing.T) {
	a := NewAggregator()
	beginIncident(a, 2)

	// First heartbeat: restore still open. Later cumulative reports
	// replace it by key with the closed copy.
	a.Fold([]Span{{Phase: PhaseRestore, Partition: 1, Epoch: 2, Worker: "w1", StartNs: ms(45)}})
	a.Fold(workerSpans(2))

	rep := a.Report()
	if len(rep.Incidents) != 1 {
		t.Fatalf("incidents = %d, want 1", len(rep.Incidents))
	}
	inc := rep.Incidents[0]
	if inc.Complete {
		t.Fatalf("incident complete before catch-up closed")
	}

	a.Fold([]Span{{Phase: PhaseCatchup, Partition: 1, Epoch: 2, StartNs: ms(95), EndNs: ms(145), Events: 900}})
	inc = a.Report().Incidents[0]
	if !inc.Complete {
		t.Fatalf("incident not complete after catch-up on every moved partition")
	}
	if inc.Victim != "w2" || inc.Epoch != 2 {
		t.Errorf("victim/epoch = %q/%d, want w2/2", inc.Victim, inc.Epoch)
	}
	if inc.DetectedNs != ms(40) {
		t.Errorf("DetectedNs = %d, want %d", inc.DetectedNs, ms(40))
	}
	if inc.TotalMs != 145 {
		t.Errorf("TotalMs = %v, want 145", inc.TotalMs)
	}
	want := map[string]float64{
		PhaseDetect: 40, PhaseDecide: 5, PhaseRestore: 25,
		PhaseRefill: 5, PhaseReplay: 20, PhaseCatchup: 50,
	}
	for ph, w := range want {
		if got := inc.PhaseMs[ph]; got != w {
			t.Errorf("PhaseMs[%s] = %v, want %v", ph, got, w)
		}
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
	// Spans come back sorted by start time.
	for i := 1; i < len(inc.Spans); i++ {
		if inc.Spans[i].StartNs < inc.Spans[i-1].StartNs {
			t.Errorf("spans not sorted by StartNs at %d", i)
		}
	}
}

func TestPhaseUnionCountsOverlapOnce(t *testing.T) {
	a := NewAggregator()
	a.Begin(3, "w1", []int{0, 1},
		Span{Phase: PhaseDetect, Partition: -1, Epoch: 3, StartNs: ms(0), EndNs: ms(10)},
		Span{Phase: PhaseDecide, Partition: -1, Epoch: 3, StartNs: ms(10), EndNs: ms(12)})
	// Two partitions restoring in parallel: 12..40 and 20..50 overlap,
	// union is 12..50 = 38ms, not 58ms.
	a.Fold([]Span{
		{Phase: PhaseRestore, Partition: 0, Epoch: 3, Worker: "w2", StartNs: ms(12), EndNs: ms(40)},
		{Phase: PhaseRestore, Partition: 1, Epoch: 3, Worker: "w3", StartNs: ms(20), EndNs: ms(50)},
	})
	inc := a.Report().Incidents[0]
	if got := inc.PhaseMs[PhaseRestore]; got != 38 {
		t.Errorf("restore union = %v ms, want 38", got)
	}
}

func TestPhaseMsWithinClipsToWindow(t *testing.T) {
	a := NewAggregator()
	beginIncident(a, 2)
	a.Fold(workerSpans(2))
	a.Fold([]Span{{Phase: PhaseCatchup, Partition: 1, Epoch: 2, StartNs: ms(95), EndNs: ms(145)}})
	inc := a.Report().Incidents[0]

	// Window [20, 120]: detect clipped to 20ms of its 40, catchup to 25
	// of its 50; fully-inside phases unchanged; nothing outside counted.
	got := inc.PhaseMsWithin(ms(20), ms(120))
	want := map[string]float64{
		PhaseDetect: 20, PhaseDecide: 5, PhaseRestore: 25,
		PhaseRefill: 5, PhaseReplay: 20, PhaseCatchup: 25,
	}
	for ph, w := range want {
		if got[ph] != w {
			t.Errorf("clipped PhaseMs[%s] = %v, want %v", ph, got[ph], w)
		}
	}
	if empty := inc.PhaseMsWithin(ms(200), ms(300)); len(empty) != 0 {
		t.Errorf("window past the incident should clip everything, got %v", empty)
	}
}

func TestFoldDropsStaleAndUnknownSpans(t *testing.T) {
	a := NewAggregator()
	beginIncident(a, 2)
	a.Fold([]Span{
		// Pre-incident span retagged to the new epoch by an epoch
		// refresh of a surviving partition: must not join the incident.
		{Phase: PhaseRestore, Partition: 0, Epoch: 2, Worker: "w1", StartNs: ms(-500), EndNs: ms(-400)},
		// Span for an epoch with no open incident: ignored.
		{Phase: PhaseRestore, Partition: 1, Epoch: 99, Worker: "w1", StartNs: ms(45), EndNs: ms(50)},
	})
	inc := a.Report().Incidents[0]
	for _, s := range inc.Spans {
		if s.StartNs < ms(0) {
			t.Errorf("stale pre-incident span folded in: %+v", s)
		}
	}
	if len(inc.Spans) != 2 { // detect + decide only
		t.Errorf("spans = %d, want 2 (detect+decide)", len(inc.Spans))
	}
}

func TestLastAndEviction(t *testing.T) {
	a := NewAggregator()
	if a.Last() != nil {
		t.Fatalf("Last() on empty aggregator should be nil")
	}
	for e := 1; e <= maxIncidents+2; e++ {
		beginIncident(a, e)
	}
	if got := a.IncidentsTotal(); got != maxIncidents+2 {
		t.Errorf("IncidentsTotal = %d, want %d", got, maxIncidents+2)
	}
	rep := a.Report()
	if len(rep.Incidents) != maxIncidents {
		t.Errorf("retained incidents = %d, want %d", len(rep.Incidents), maxIncidents)
	}
	if rep.Incidents[0].Epoch != 3 {
		t.Errorf("oldest retained epoch = %d, want 3 (1 and 2 evicted)", rep.Incidents[0].Epoch)
	}
	if s := a.Last(); s == nil || s.Epoch != maxIncidents+2 {
		t.Errorf("Last() = %+v, want epoch %d", s, maxIncidents+2)
	}
}

func TestMetricsRegisteredAndDocumented(t *testing.T) {
	a := NewAggregator()
	reg := metrics.NewRegistry()
	RegisterMetrics(a, reg)

	beginIncident(a, 2)
	a.Fold(workerSpans(2))
	a.Fold([]Span{{Phase: PhaseCatchup, Partition: 1, Epoch: 2, StartNs: ms(95), EndNs: ms(145)}})

	checks := map[string]float64{
		"recovery_incidents_total":          1,
		"recovery_incidents_complete_total": 1,
		"recovery_restore_bytes_total":      4096,
		"recovery_log_records_total":        120,
		"recovery_replay_events_total":      200,
		"recovery_replay_dedup_drops_total": 7,
		"recovery_last_total_ms":            145,
	}
	for name, want := range checks {
		if v, ok := metricstest.Value(reg, name, nil); !ok || v != want {
			t.Errorf("%s = %v ok=%v, want %v", name, v, ok, want)
		}
	}
}
