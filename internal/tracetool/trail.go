package tracetool

import (
	"fmt"
	"io"
	"time"

	"streammine/internal/metrics"
)

// WriteTrail renders the process-level records of the merged trace —
// clock headers, partition epochs, lifecycle, recovery and chaos records
// — as one timeline: offset from the first record, process, node, phase
// and detail. These records are flushed through as they are written, so
// the trail of a SIGKILLed process ends where it died.
func (s *Set) WriteTrail(w io.Writer) {
	var base int64
	n := 0
	for _, sp := range s.Spans {
		if !metrics.ProcessPhase(sp.Phase) {
			continue
		}
		if n == 0 {
			base = sp.TS
		}
		n++
		proc := sp.Proc
		if proc == "" {
			proc = "engine"
		}
		fmt.Fprintf(w, "%12s  %-12s %-4s %-9s %s\n",
			"+"+time.Duration(sp.TS-base).Round(time.Microsecond).String(), proc, sp.Node, sp.Phase, sp.Info)
	}
	if n == 0 {
		fmt.Fprintln(w, "no process-level records")
	}
}
