// Package recovery is the recovery anatomy profiler: it stitches the
// per-phase spans emitted during a failure recovery — detection,
// coordinator decision, per-partition restore, credit-window refill,
// replay, and catch-up — into per-incident timelines with attribution
// (checkpoint bytes, decision-log records, replay events/sec, dedup
// drops). The coordinator owns an Aggregator; workers report their
// local spans piggybacked on STATUS heartbeats; every phase transition
// is written to the process's trace file so a crash mid-takeover still
// leaves a parseable trail. Reports are served at /debug/recovery and
// summarized into /debug/health.
package recovery

import (
	"fmt"
	"sort"
	"sync"

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

// Span is one instrumented phase window, attributed to a partition and
// the worker that executed it. Coordinator-side phases (detect, decide)
// use Partition -1. A zero EndNs means the phase is still open.
type Span struct {
	Phase     string `json:"phase"`
	Partition int    `json:"partition"`
	Epoch     int    `json:"epoch"`
	Worker    string `json:"worker,omitempty"`
	StartNs   int64  `json:"startNs"`
	EndNs     int64  `json:"endNs,omitempty"`
	// Attribution. Bytes: checkpoint bytes loaded (restore). Records:
	// decision-log records scanned (restore) or credit gates reset
	// (refill). Events: events re-admitted (replay) or committed
	// (catchup). Drops: snapshot-covered IDs (restore) or covered-set
	// dedup drops (replay).
	Bytes   int64 `json:"bytes,omitempty"`
	Records int64 `json:"records,omitempty"`
	Events  int64 `json:"events,omitempty"`
	Drops   int64 `json:"drops,omitempty"`
}

// DurationMs is the span length in milliseconds (0 while open).
func (s Span) DurationMs() float64 {
	if s.EndNs == 0 || s.EndNs < s.StartNs {
		return 0
	}
	return float64(s.EndNs-s.StartNs) / 1e6
}

// RecordTransition writes a completed (or opened) phase span to tr as a
// process-level recovery record, so the recovery trail survives a
// process crash. Coordinator-side spans (Partition -1) carry no node.
func RecordTransition(tr *metrics.Tracer, s Span) {
	if tr == nil {
		return
	}
	node := ""
	if s.Partition >= 0 {
		node = fmt.Sprintf("p%d", s.Partition)
	}
	info := fmt.Sprintf("%s epoch=%d start", s.Phase, s.Epoch)
	if s.EndNs != 0 {
		info = fmt.Sprintf("%s epoch=%d ms=%.1f bytes=%d records=%d events=%d drops=%d",
			s.Phase, s.Epoch, s.DurationMs(), s.Bytes, s.Records, s.Events, s.Drops)
	}
	tr.Record(node, "", metrics.PhaseRecovery, info)
}

// Incident is the stitched anatomy of one recovery: every span reported
// for the post-failure epoch plus derived per-phase durations and
// attribution totals.
type Incident struct {
	Epoch      int    `json:"epoch"`
	Victim     string `json:"victim"`
	Partitions []int  `json:"partitions"`
	StartNs    int64  `json:"startNs"`
	// DetectedNs is the end of the detect phase: the moment the
	// coordinator declared the worker dead (the detection anchor for
	// recovery_detected_ms).
	DetectedNs int64  `json:"detectedNs"`
	EndNs      int64  `json:"endNs,omitempty"`
	Complete   bool   `json:"complete"`
	Spans      []Span `json:"spans"`
	// PhaseMs is the interval union of each phase's spans: overlapping
	// spans of the same phase (parallel partition restores) count once.
	PhaseMs            map[string]float64 `json:"phaseMs"`
	DominantPhase      string             `json:"dominantPhase,omitempty"`
	TotalMs            float64            `json:"totalMs"`
	RestoreBytes       int64              `json:"restoreBytes"`
	LogRecords         int64              `json:"logRecords"`
	ReplayEvents       int64              `json:"replayEvents"`
	ReplayDrops        int64              `json:"replayDrops"`
	ReplayEventsPerSec float64            `json:"replayEventsPerSec,omitempty"`
}

// Summary is the compact last-incident digest embedded in /debug/health.
type Summary struct {
	Epoch         int                `json:"epoch"`
	Victim        string             `json:"victim"`
	Complete      bool               `json:"complete"`
	TotalMs       float64            `json:"totalMs"`
	PhaseMs       map[string]float64 `json:"phaseMs"`
	DominantPhase string             `json:"dominantPhase,omitempty"`
}

// Report is the /debug/recovery payload: incidents oldest-first.
type Report struct {
	Incidents []Incident `json:"incidents"`
}

// spanKey identifies one span across repeated cumulative reports: a
// worker re-sends its full span set on every heartbeat and the
// aggregator replaces by key, so an open span's EndNs fills in later.
type spanKey struct {
	phase     string
	partition int
	worker    string
	startNs   int64
}

type incident struct {
	epoch       int
	victim      string
	partitions  []int
	startNs     int64
	detectedNs  int64
	endNs       int64
	complete    bool
	spans       map[spanKey]Span
	catchupDone map[int]bool
}

// maxIncidents bounds aggregator memory; older incidents are evicted
// oldest-first (the trace files keep the long tail).
const maxIncidents = 16

// Aggregator folds phase spans into per-incident reports. It is safe
// for concurrent use; the coordinator opens incidents from its failure
// handler and folds worker spans from the STATUS path.
type Aggregator struct {
	mu       sync.Mutex
	order    []*incident
	byEpoch  map[int]*incident
	total    uint64
	complete uint64

	// Cumulative attribution totals across completed incidents, read by
	// the recovery_* counter funcs.
	cumRestoreBytes uint64
	cumLogRecords   uint64
	cumReplayEvents uint64
	cumReplayDrops  uint64

	// phaseObs, when set by RegisterMetrics, observes each phase's
	// union duration (ms) at incident completion.
	phaseObs func(phase string, ms float64)
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{byEpoch: make(map[int]*incident)}
}

// Begin opens an incident for the given post-failure epoch with the
// coordinator-side detect and decide spans already resolved.
func (a *Aggregator) Begin(epoch int, victim string, partitions []int, detect, decide Span) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.byEpoch[epoch]; ok {
		return
	}
	inc := &incident{
		epoch:       epoch,
		victim:      victim,
		partitions:  append([]int(nil), partitions...),
		startNs:     detect.StartNs,
		detectedNs:  detect.EndNs,
		spans:       make(map[spanKey]Span),
		catchupDone: make(map[int]bool),
	}
	if inc.startNs == 0 {
		inc.startNs = decide.StartNs
	}
	inc.put(detect)
	inc.put(decide)
	a.byEpoch[epoch] = inc
	a.order = append(a.order, inc)
	a.total++
	if len(a.order) > maxIncidents {
		evict := a.order[0]
		a.order = a.order[1:]
		delete(a.byEpoch, evict.epoch)
	}
}

func (inc *incident) put(s Span) {
	if s.StartNs == 0 {
		return
	}
	inc.spans[spanKey{s.Phase, s.Partition, s.Worker, s.StartNs}] = s
}

// Fold merges a batch of spans into their incidents (keyed by epoch).
// Spans for epochs with no open incident — the initial deploy, or
// incidents already evicted — are ignored. Repeated reports of the same
// span replace the previous copy, so cumulative worker snapshots are
// safe to fold on every heartbeat.
func (a *Aggregator) Fold(spans []Span) {
	a.mu.Lock()
	defer a.mu.Unlock()
	touched := make(map[*incident]bool)
	for _, s := range spans {
		inc := a.byEpoch[s.Epoch]
		if inc == nil || inc.complete {
			continue
		}
		// Epoch refreshes retag surviving partitions without rebuilding
		// them, so their reports can carry pre-failure spans at the new
		// epoch; anything that started before the incident cannot be
		// part of its recovery.
		if s.StartNs < inc.startNs {
			continue
		}
		inc.put(s)
		if s.Phase == PhaseCatchup && s.EndNs != 0 {
			inc.catchupDone[s.Partition] = true
		}
		touched[inc] = true
	}
	for inc := range touched {
		a.maybeCompleteLocked(inc)
	}
}

// maybeCompleteLocked marks the incident complete once every moved
// partition has finished catch-up and every reported span is closed
// (catch-up can end while a slow replay's closing report is still a
// heartbeat away), stamps the end time, and feeds the
// completed-incident metrics.
func (a *Aggregator) maybeCompleteLocked(inc *incident) {
	if inc.complete {
		return
	}
	for _, p := range inc.partitions {
		if !inc.catchupDone[p] {
			return
		}
	}
	for _, s := range inc.spans {
		if s.EndNs == 0 {
			return
		}
	}
	inc.complete = true
	for _, s := range inc.spans {
		if s.EndNs > inc.endNs {
			inc.endNs = s.EndNs
		}
	}
	a.complete++
	view := inc.view()
	a.cumRestoreBytes += uint64(view.RestoreBytes)
	a.cumLogRecords += uint64(view.LogRecords)
	a.cumReplayEvents += uint64(view.ReplayEvents)
	a.cumReplayDrops += uint64(view.ReplayDrops)
	if a.phaseObs != nil {
		for ph, ms := range view.PhaseMs {
			a.phaseObs(ph, ms)
		}
	}
}

// view derives the exported Incident from the raw span set.
func (inc *incident) view() Incident {
	out := Incident{
		Epoch:      inc.epoch,
		Victim:     inc.victim,
		Partitions: append([]int(nil), inc.partitions...),
		StartNs:    inc.startNs,
		DetectedNs: inc.detectedNs,
		EndNs:      inc.endNs,
		Complete:   inc.complete,
		PhaseMs:    make(map[string]float64, len(Phases)),
	}
	byPhase := make(map[string][]Span, len(Phases))
	var lastEnd int64
	for _, s := range inc.spans {
		out.Spans = append(out.Spans, s)
		byPhase[s.Phase] = append(byPhase[s.Phase], s)
		if s.EndNs > lastEnd {
			lastEnd = s.EndNs
		}
		switch s.Phase {
		case PhaseRestore:
			out.RestoreBytes += s.Bytes
			out.LogRecords += s.Records
		case PhaseReplay:
			out.ReplayEvents += s.Events
			out.ReplayDrops += s.Drops
		}
	}
	sort.Slice(out.Spans, func(i, j int) bool {
		if out.Spans[i].StartNs != out.Spans[j].StartNs {
			return out.Spans[i].StartNs < out.Spans[j].StartNs
		}
		return out.Spans[i].Partition < out.Spans[j].Partition
	})
	var dominant string
	var dominantMs float64
	for ph, spans := range byPhase {
		ms := unionMs(spans)
		out.PhaseMs[ph] = ms
		if ms > dominantMs {
			dominant, dominantMs = ph, ms
		}
	}
	out.DominantPhase = dominant
	end := inc.endNs
	if end == 0 {
		end = lastEnd
	}
	if end > inc.startNs && inc.startNs != 0 {
		out.TotalMs = float64(end-inc.startNs) / 1e6
	}
	if ms := out.PhaseMs[PhaseReplay]; ms > 0 && out.ReplayEvents > 0 {
		out.ReplayEventsPerSec = float64(out.ReplayEvents) / (ms / 1e3)
	}
	return out
}

// PhaseMsWithin recomputes the per-phase interval-union durations with
// every span clipped to the [startNs, endNs] window. Callers comparing
// the instrumented timeline against an external clock (the campaign's
// black-box dip) use this to align anchors first: the incident starts
// at the victim's last heartbeat — before the fault was even injected —
// and ends at the coordinator's fold-granular catch-up close, so raw
// sums legitimately overshoot a dip measured injection-to-recovery.
func (inc Incident) PhaseMsWithin(startNs, endNs int64) map[string]float64 {
	byPhase := make(map[string][]Span, len(Phases))
	for _, s := range inc.Spans {
		if s.EndNs <= startNs || s.StartNs >= endNs {
			continue
		}
		c := s
		if c.StartNs < startNs {
			c.StartNs = startNs
		}
		if c.EndNs > endNs {
			c.EndNs = endNs
		}
		byPhase[c.Phase] = append(byPhase[c.Phase], c)
	}
	out := make(map[string]float64, len(byPhase))
	for ph, spans := range byPhase {
		out[ph] = unionMs(spans)
	}
	return out
}

// unionMs is the interval-union length of the closed spans, in
// milliseconds: overlapping windows (parallel partition restores)
// count once, so per-phase durations sum to wall coverage.
func unionMs(spans []Span) float64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		if s.EndNs > s.StartNs {
			ivs = append(ivs, iv{s.StartNs, s.EndNs})
		}
	}
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	curA, curB = ivs[0].a, ivs[0].b
	for _, v := range ivs[1:] {
		if v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		if v.b > curB {
			curB = v.b
		}
	}
	total += curB - curA
	return float64(total) / 1e6
}

// Report returns every retained incident, oldest first.
func (a *Aggregator) Report() Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	rep := Report{Incidents: make([]Incident, 0, len(a.order))}
	for _, inc := range a.order {
		rep.Incidents = append(rep.Incidents, inc.view())
	}
	return rep
}

// Last returns the most recent incident's digest, or nil if none.
func (a *Aggregator) Last() *Summary {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.order) == 0 {
		return nil
	}
	v := a.order[len(a.order)-1].view()
	return &Summary{
		Epoch:         v.Epoch,
		Victim:        v.Victim,
		Complete:      v.Complete,
		TotalMs:       v.TotalMs,
		PhaseMs:       v.PhaseMs,
		DominantPhase: v.DominantPhase,
	}
}

// IncidentsTotal reports how many incidents have ever been opened.
func (a *Aggregator) IncidentsTotal() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}
