// Package recovery is the recovery anatomy: the per-phase spans of a
// failure recovery — detection, coordinator decision, per-partition
// restore, credit-window refill, replay, and catch-up — and the fold that
// stitches them into per-incident timelines with attribution (checkpoint
// bytes, decision-log records, replay events/sec, dedup drops). The
// coordinator and the workers write each span, as its phase closes, to
// their trace file as a process-level recovery record, so the crash trail
// is the only record of a recovery and a crash mid-takeover still leaves
// a parseable one. Incidents folds the merged trails after the run; the
// campaign runner and `tracetool recovery` are its readers.
package recovery

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"streammine/internal/metrics"
)

// Phase names, in canonical timeline order. Per partition the phases
// are disjoint by construction: detect and decide happen on the
// coordinator; restore covers both the partition rebuild (ASSIGN →
// engine built) and the durable load (checkpoint + decision-log scan),
// with the refill (bridge re-attach) window between the two; replay
// drains the admission-ordered plan; catchup runs from the first
// post-takeover commit until the commit rate is back to half the
// pre-fault rate.
const (
	PhaseDetect  = "detect"
	PhaseDecide  = "decide"
	PhaseRestore = "restore"
	PhaseRefill  = "refill"
	PhaseReplay  = "replay"
	PhaseCatchup = "catchup"
)

// Phases lists every phase in canonical order.
var Phases = []string{PhaseDetect, PhaseDecide, PhaseRestore, PhaseRefill, PhaseReplay, PhaseCatchup}

// Span is one closed phase window, attributed to a partition and the
// worker that executed it. Coordinator-side phases (detect, decide) use
// Partition -1 and name the victim as Worker.
type Span struct {
	Phase     string
	Partition int
	Epoch     int
	Worker    string
	StartNs   int64
	EndNs     int64
	// Attribution. Bytes: checkpoint bytes loaded (restore). Records:
	// decision-log records scanned (restore) or outgoing cut edges
	// re-attached (refill). Events: events re-admitted (replay) or
	// committed (catchup). Drops: snapshot-covered IDs (restore) or
	// covered-set dedup drops (replay).
	Bytes   int64
	Records int64
	Events  int64
	Drops   int64
	// Moved lists the partitions a decide span reassigned.
	Moved []int
}

// DurationMs is the span length in milliseconds.
func (s Span) DurationMs() float64 {
	if s.EndNs < s.StartNs {
		return 0
	}
	return float64(s.EndNs-s.StartNs) / 1e6
}

// recordFormat is the info of a recovery record: every span field but
// the partition, which is the record's node ("p3"; none for
// coordinator-side spans), and the moved partitions, which a decide
// record appends as " moved=1,3".
const recordFormat = "%s epoch=%d start_ns=%d end_ns=%d worker=%q bytes=%d records=%d events=%d drops=%d"

// RecordTransition writes a closed phase span to tr as a process-level
// recovery record (docs/OBSERVABILITY.md "Crash trail"). The record
// carries the span exactly, so its own timestamp — the write time —
// plays no part in the anatomy.
func RecordTransition(tr *metrics.Tracer, s Span) {
	if tr == nil {
		return
	}
	node := ""
	if s.Partition >= 0 {
		node = fmt.Sprintf("p%d", s.Partition)
	}
	info := fmt.Sprintf(recordFormat, s.Phase, s.Epoch, s.StartNs, s.EndNs, s.Worker, s.Bytes, s.Records, s.Events, s.Drops)
	if len(s.Moved) > 0 {
		moved := make([]string, len(s.Moved))
		for i, p := range s.Moved {
			moved[i] = strconv.Itoa(p)
		}
		info += " moved=" + strings.Join(moved, ",")
	}
	tr.Record(node, "", metrics.PhaseRecovery, info)
}

// parseRecord reads a RecordTransition record back into its span; ok is
// false for any other record, a recovery record of another format
// included.
func parseRecord(r metrics.Span) (s Span, ok bool) {
	if r.Phase != metrics.PhaseRecovery {
		return Span{}, false
	}
	s.Partition = -1
	if r.Node != "" {
		if _, err := fmt.Sscanf(r.Node, "p%d", &s.Partition); err != nil {
			return Span{}, false
		}
	}
	info, moved, _ := strings.Cut(r.Info, " moved=")
	if _, err := fmt.Sscanf(info, recordFormat, &s.Phase, &s.Epoch, &s.StartNs, &s.EndNs,
		&s.Worker, &s.Bytes, &s.Records, &s.Events, &s.Drops); err != nil {
		return Span{}, false
	}
	if moved != "" {
		for _, p := range strings.Split(moved, ",") {
			id, err := strconv.Atoi(p)
			if err != nil {
				return Span{}, false
			}
			s.Moved = append(s.Moved, id)
		}
	}
	return s, true
}

// Incident is the stitched anatomy of one recovery: every span recorded
// for the post-failure epoch plus derived per-phase durations and
// attribution totals.
type Incident struct {
	Epoch      int
	Victim     string
	Partitions []int
	StartNs    int64
	// DetectedNs is the end of the detect phase: the moment the
	// coordinator declared the worker dead (the detection anchor for
	// recovery_detected_ms).
	DetectedNs int64
	// EndNs is the last span's end, set once the incident is complete.
	EndNs    int64
	Complete bool
	Spans    []Span
	// PhaseMs is the interval union of each phase's spans: overlapping
	// spans of the same phase (parallel partition restores) count once.
	PhaseMs            map[string]float64
	DominantPhase      string
	TotalMs            float64
	RestoreBytes       int64
	LogRecords         int64
	ReplayEvents       int64
	ReplayDrops        int64
	ReplayEventsPerSec float64
}

// Report is the fold of a trail: its incidents, oldest epoch first.
type Report struct {
	Incidents []Incident
}

// Incidents folds the recovery records of a merged trail into one
// incident per worker failure. An incident opens at a detect record,
// which names the victim and the post-failure epoch; the decide record
// of that epoch names the moved partitions. The incident takes every
// span of its epoch that starts at or after the detect span: epoch
// refreshes retag surviving partitions without rebuilding them, so
// anything that started earlier cannot be part of this recovery, and the
// initial deploy's spans (no detect record) open nothing. An incident is
// complete once every moved partition has closed its catch-up.
func Incidents(records []metrics.Span) Report {
	var spans []Span
	byEpoch := make(map[int]*Incident)
	for _, r := range records {
		s, ok := parseRecord(r)
		if !ok {
			continue
		}
		if s.Phase == PhaseDetect && byEpoch[s.Epoch] == nil {
			byEpoch[s.Epoch] = &Incident{
				Epoch: s.Epoch, Victim: s.Worker,
				StartNs: s.StartNs, DetectedNs: s.EndNs,
			}
		}
		spans = append(spans, s)
	}
	for _, s := range spans {
		if inc := byEpoch[s.Epoch]; inc != nil && s.StartNs >= inc.StartNs {
			inc.Spans = append(inc.Spans, s)
			if s.Phase == PhaseDecide {
				inc.Partitions = append(inc.Partitions, s.Moved...)
			}
		}
	}
	rep := Report{Incidents: make([]Incident, 0, len(byEpoch))}
	for _, inc := range byEpoch {
		inc.derive()
		rep.Incidents = append(rep.Incidents, *inc)
	}
	sort.Slice(rep.Incidents, func(i, j int) bool { return rep.Incidents[i].Epoch < rep.Incidents[j].Epoch })
	return rep
}

// derive sorts the incident's spans and fills in everything computed
// from them: completeness, end, phase unions, dominant phase and
// attribution totals.
func (inc *Incident) derive() {
	sort.Slice(inc.Spans, func(i, j int) bool {
		if inc.Spans[i].StartNs != inc.Spans[j].StartNs {
			return inc.Spans[i].StartNs < inc.Spans[j].StartNs
		}
		return inc.Spans[i].Partition < inc.Spans[j].Partition
	})
	caughtUp := make(map[int]bool)
	byPhase := make(map[string][]Span, len(Phases))
	var end int64
	for _, s := range inc.Spans {
		byPhase[s.Phase] = append(byPhase[s.Phase], s)
		end = max(end, s.EndNs)
		switch s.Phase {
		case PhaseRestore:
			inc.RestoreBytes += s.Bytes
			inc.LogRecords += s.Records
		case PhaseReplay:
			inc.ReplayEvents += s.Events
			inc.ReplayDrops += s.Drops
		case PhaseCatchup:
			caughtUp[s.Partition] = true
		}
	}
	inc.Complete = len(inc.Partitions) > 0
	for _, p := range inc.Partitions {
		inc.Complete = inc.Complete && caughtUp[p]
	}
	if inc.Complete {
		inc.EndNs = end
	}
	if end > inc.StartNs {
		inc.TotalMs = float64(end-inc.StartNs) / 1e6
	}
	inc.PhaseMs = make(map[string]float64, len(byPhase))
	var dominantMs float64
	for _, ph := range Phases {
		spans, ok := byPhase[ph]
		if !ok {
			continue
		}
		_, ns := Union(spans)
		ms := float64(ns) / 1e6
		inc.PhaseMs[ph] = ms
		if ms > dominantMs {
			inc.DominantPhase, dominantMs = ph, ms
		}
	}
	if ms := inc.PhaseMs[PhaseReplay]; ms > 0 && inc.ReplayEvents > 0 {
		inc.ReplayEventsPerSec = float64(inc.ReplayEvents) / (ms / 1e3)
	}
}

// PhaseMsWithin recomputes the per-phase interval-union durations with
// every span clipped to the [startNs, endNs] window. Callers comparing
// the instrumented timeline against an external clock (the campaign's
// black-box dip) use this to align anchors first: the incident starts
// at the victim's last heartbeat — before the fault was even injected —
// and ends at the coordinator's STATUS-granular catch-up close, so raw
// sums legitimately overshoot a dip measured injection-to-recovery.
func (inc Incident) PhaseMsWithin(startNs, endNs int64) map[string]float64 {
	byPhase := make(map[string][]Span, len(Phases))
	for _, s := range inc.Spans {
		if s.EndNs <= startNs || s.StartNs >= endNs {
			continue
		}
		s.StartNs = max(s.StartNs, startNs)
		s.EndNs = min(s.EndNs, endNs)
		byPhase[s.Phase] = append(byPhase[s.Phase], s)
	}
	out := make(map[string]float64, len(byPhase))
	for ph, spans := range byPhase {
		_, ns := Union(spans)
		out[ph] = float64(ns) / 1e6
	}
	return out
}

// Union merges the spans' windows into disjoint [start, end] intervals
// in start order and returns them with their total length in
// nanoseconds: overlapping windows (parallel partition restores) count
// once, so per-phase durations sum to wall coverage. Empty windows are
// left out.
func Union(spans []Span) (ivs [][2]int64, ns int64) {
	for _, s := range spans {
		if s.EndNs > s.StartNs {
			ivs = append(ivs, [2]int64{s.StartNs, s.EndNs})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	merged := ivs[:0]
	for _, v := range ivs {
		if n := len(merged); n > 0 && v[0] <= merged[n-1][1] {
			merged[n-1][1] = max(merged[n-1][1], v[1])
			continue
		}
		merged = append(merged, v)
	}
	for _, v := range merged {
		ns += v[1] - v[0]
	}
	return merged, ns
}
