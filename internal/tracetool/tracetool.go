// Package tracetool merges and analyzes the JSONL lifecycle traces
// written by metrics.Tracer: it stitches per-process files into one
// timeline, groups spans into per-event lineages by trace id, computes
// per-phase latency breakdowns and critical paths, validates structural
// invariants (no orphan lineages, no spans from dead partition epochs),
// renders the process-level crash trail, and exports Chrome trace-event
// JSON loadable in Perfetto.
//
// The command-line front end is cmd/tracetool; the analysis lives here so
// tests (and the chaos suite) can drive it in-process.
package tracetool

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"streammine/internal/metrics"
)

// File is one parsed per-process trace file.
type File struct {
	// Name is the source path (or a caller-chosen label).
	Name string
	// Spans are the parsed records, including clock and epoch headers.
	Spans []metrics.Span
	// TornTail reports that the final line was incomplete JSON — the
	// signature of a process killed mid-write (SIGKILL). Like the WAL's
	// torn tail, it is tolerated: the intact prefix is the trace.
	TornTail bool
}

// ReadFile parses one JSONL trace file. A malformed final line marks the
// file TornTail; a malformed line anywhere else is an error (the file is
// not a trace, or was corrupted beyond a crash tear).
func ReadFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	file, err := Read(f)
	if file != nil {
		file.Name = path
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return file, nil
}

// Read parses a JSONL trace stream (see ReadFile for tear semantics).
func Read(r io.Reader) (*File, error) {
	out := &File{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pendingErr error
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if pendingErr != nil {
			// The malformed line was not the last one: real corruption.
			return out, pendingErr
		}
		var s metrics.Span
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			pendingErr = fmt.Errorf("line %d: %w", lineNo, err)
			continue
		}
		out.Spans = append(out.Spans, s)
	}
	if err := sc.Err(); err != nil {
		return out, err
	}
	if pendingErr != nil {
		out.TornTail = true
	}
	return out, nil
}

// Epoch is one parsed PhaseEpoch record: a partition (re)build on a
// process. Offline analysis uses the records to attribute spans to
// partition incarnations after failovers.
type Epoch struct {
	Partition int
	Epoch     int
	Worker    string
	Proc      string
	TS        int64
}

// Set is a merged multi-process trace.
type Set struct {
	// Spans is the merged timeline, sorted by timestamp (stable, so
	// same-timestamp spans keep their file order). Clock and epoch
	// records are included.
	Spans []metrics.Span
	// Files are the inputs, in merge order.
	Files []*File
	// TornTails counts inputs that ended in a torn line.
	TornTails int
}

// Merge stitches per-process files into one timeline. Tracer timestamps
// are wall-clock unix nanoseconds anchored per process (the PhaseClock
// header), so sorting by TS aligns the files up to host clock skew.
func Merge(files ...*File) *Set {
	s := &Set{Files: files}
	for _, f := range files {
		s.Spans = append(s.Spans, f.Spans...)
		if f.TornTail {
			s.TornTails++
		}
	}
	sort.SliceStable(s.Spans, func(i, j int) bool { return s.Spans[i].TS < s.Spans[j].TS })
	return s
}

// Load reads and merges trace files in one step.
func Load(paths ...string) (*Set, error) {
	files := make([]*File, 0, len(paths))
	for _, p := range paths {
		f, err := ReadFile(p)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return Merge(files...), nil
}

// Epochs extracts the partition-epoch records from the merged timeline.
func (s *Set) Epochs() []Epoch {
	var out []Epoch
	for _, sp := range s.Spans {
		if sp.Phase != metrics.PhaseEpoch {
			continue
		}
		e := Epoch{Proc: sp.Proc, TS: sp.TS, Partition: -1, Epoch: -1}
		for _, kv := range strings.Fields(sp.Info) {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				continue
			}
			switch k {
			case "partition":
				fmt.Sscanf(v, "%d", &e.Partition)
			case "epoch":
				fmt.Sscanf(v, "%d", &e.Epoch)
			case "worker":
				e.Worker = v
			}
		}
		if e.Partition >= 0 && e.Epoch >= 0 {
			out = append(out, e)
		}
	}
	return out
}

// Lineage is every span of one event lineage — an event's journey from
// source ingress through speculation, commit, and externalization,
// possibly spanning several processes — in timestamp order.
type Lineage struct {
	// Trace is the lowercase-hex trace id, or "event:<id>" for legacy
	// untraced spans grouped by event identity.
	Trace string
	Spans []metrics.Span
}

// Lineages groups the lifecycle spans by trace id, falling back to event
// identity for untraced (legacy) spans so old traces still group
// per-event within a process. Lineages are returned sorted by first
// timestamp; spans within each stay timeline-ordered.
func (s *Set) Lineages() []*Lineage {
	byKey := make(map[string]*Lineage)
	var order []*Lineage
	for _, sp := range s.Spans {
		if metrics.ProcessPhase(sp.Phase) {
			continue
		}
		key := sp.Trace
		if key == "" {
			if sp.Event == "" {
				continue
			}
			key = "event:" + sp.Event
		}
		l := byKey[key]
		if l == nil {
			l = &Lineage{Trace: key}
			byKey[key] = l
			order = append(order, l)
		}
		l.Spans = append(l.Spans, sp)
	}
	return order
}

// Has reports whether the lineage contains at least one span of the
// given phase.
func (l *Lineage) Has(phase string) bool {
	for _, sp := range l.Spans {
		if sp.Phase == phase {
			return true
		}
	}
	return false
}

// Complete reports whether the lineage is reconstructable end to end: it
// begins at an ingress and, if it was externalized, also records the
// commit that ordered it. Replayed lineages count — the re-execution
// re-records every phase under the same trace id.
func (l *Lineage) Complete() bool {
	if !l.Has(metrics.PhaseIngress) {
		return false
	}
	if l.Has(metrics.PhaseExternalize) && !l.Has(metrics.PhaseCommit) {
		return false
	}
	return true
}
