package tracetool

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"streammine/internal/recovery"
)

// barWidth is the waterfall's character budget per incident window.
const barWidth = 40

// WriteRecovery folds the merged trail's recovery records into incidents
// (recovery.Incidents) and renders each as a phase waterfall: every span
// on its own row, offset and scaled within the incident window, with
// attribution (bytes, records, events, drops), a per-phase duration
// summary naming the dominant phase, and a timeline gap check.
func (s *Set) WriteRecovery(w io.Writer) {
	rep := recovery.Incidents(s.Spans)
	if len(rep.Incidents) == 0 {
		fmt.Fprintln(w, "no recovery incidents recorded")
		return
	}
	for i, inc := range rep.Incidents {
		if i > 0 {
			fmt.Fprintln(w)
		}
		writeIncident(w, inc)
	}
}

func writeIncident(w io.Writer, inc recovery.Incident) {
	state := "in progress"
	if inc.Complete {
		state = "complete"
	}
	fmt.Fprintf(w, "incident epoch %d — victim %q, partitions %v — %.1fms (%s)\n",
		inc.Epoch, inc.Victim, inc.Partitions, inc.TotalMs, state)

	end := inc.EndNs
	for _, s := range inc.Spans {
		if s.EndNs > end {
			end = s.EndNs
		}
	}
	window := end - inc.StartNs
	if window <= 0 {
		window = 1
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PHASE\tPART\tSTART\tDUR(MS)\tTIMELINE\tDETAIL")
	for _, s := range inc.Spans {
		part := "—"
		if s.Partition >= 0 {
			part = fmt.Sprintf("p%d", s.Partition)
		}
		fmt.Fprintf(tw, "%s\t%s\t+%.1f\t%.1f\t%s\t%s\n",
			s.Phase, part, float64(s.StartNs-inc.StartNs)/1e6, s.DurationMs(),
			bar(s.StartNs-inc.StartNs, s.EndNs-s.StartNs, window),
			spanDetail(s))
	}
	_ = tw.Flush()

	var phases []string
	for _, ph := range recovery.Phases {
		if ms, ok := inc.PhaseMs[ph]; ok {
			phases = append(phases, fmt.Sprintf("%s %.1f", ph, ms))
		}
	}
	fmt.Fprintf(w, "phases: %s", strings.Join(phases, " | "))
	if inc.DominantPhase != "" {
		fmt.Fprintf(w, " — dominant %s (%.1fms)", inc.DominantPhase, inc.PhaseMs[inc.DominantPhase])
	}
	fmt.Fprintln(w)
	if inc.ReplayEventsPerSec > 0 {
		fmt.Fprintf(w, "replay: %d events (%d dedup drops) at %.0f events/sec; restore: %d checkpoint bytes, %d log records\n",
			inc.ReplayEvents, inc.ReplayDrops, inc.ReplayEventsPerSec, inc.RestoreBytes, inc.LogRecords)
	}
	// Handoff jitter between phases (ASSIGN delivery, goroutine wakeup)
	// is not a coverage hole; the verdict flags real instrumentation
	// gaps, so sub-slack totals still count as gap-free.
	gapMs, largest := timelineGaps(inc, end)
	slack := 0.01 * float64(window) / 1e6
	if slack < 5 {
		slack = 5
	}
	switch {
	case gapMs == 0:
		fmt.Fprintln(w, "timeline: gap-free")
	case gapMs < slack:
		fmt.Fprintf(w, "timeline: gap-free (%.1fms handoff jitter)\n", gapMs)
	default:
		fmt.Fprintf(w, "timeline: %.1fms uncovered (largest gap %.1fms)\n", gapMs, largest)
	}
}

func bar(offset, dur, window int64) string {
	if dur < 0 {
		dur = 0
	}
	start := int(offset * barWidth / window)
	width := int(dur * barWidth / window)
	if start >= barWidth {
		start = barWidth - 1
	}
	if width < 1 {
		width = 1
	}
	if start+width > barWidth {
		width = barWidth - start
	}
	return strings.Repeat("·", start) + strings.Repeat("█", width) +
		strings.Repeat("·", barWidth-start-width)
}

func spanDetail(s recovery.Span) string {
	var parts []string
	if s.Bytes > 0 {
		parts = append(parts, fmt.Sprintf("%dB ckpt", s.Bytes))
	}
	if s.Records > 0 {
		unit := "rec"
		if s.Phase == recovery.PhaseRefill {
			unit = "edges"
		}
		parts = append(parts, fmt.Sprintf("%d %s", s.Records, unit))
	}
	if s.Events > 0 {
		parts = append(parts, fmt.Sprintf("%d ev", s.Events))
	}
	if s.Drops > 0 {
		parts = append(parts, fmt.Sprintf("%d drop", s.Drops))
	}
	if len(s.Moved) > 0 {
		parts = append(parts, fmt.Sprintf("moved %v", s.Moved))
	}
	if s.Worker != "" {
		parts = append(parts, s.Worker)
	}
	return strings.Join(parts, ", ")
}

// timelineGaps measures how much of the incident window no phase span
// covers: the window minus the spans' union, and the single largest gap
// between the union's intervals, in ms.
func timelineGaps(inc recovery.Incident, end int64) (total, largest float64) {
	ivs, covered := recovery.Union(inc.Spans)
	if len(ivs) == 0 || end <= inc.StartNs {
		return 0, 0
	}
	cursor := inc.StartNs
	var largestNs int64
	for _, v := range append(ivs, [2]int64{end, end}) {
		largestNs = max(largestNs, v[0]-cursor)
		cursor = v[1]
	}
	return float64(end-inc.StartNs-covered) / 1e6, float64(largestNs) / 1e6
}
