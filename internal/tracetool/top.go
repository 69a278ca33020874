package tracetool

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"streammine/internal/debugserver"
	"streammine/internal/health"
	"streammine/internal/recovery"
)

// WriteHealth renders one health snapshot as the `tracetool top` frame:
// the SLO verdict line, the per-operator table with budget attribution,
// then any backpressure root-cause chains and straggler flags.
func WriteHealth(w io.Writer, v *health.View) {
	if v.SLO.TargetMs > 0 {
		verdict := "within budget"
		if v.SLO.Violated {
			verdict = "VIOLATED"
		}
		fmt.Fprintf(w, "SLO p99 %.1fms / target %.1fms — %s", v.SLO.ObservedP99Ms, v.SLO.TargetMs, verdict)
	} else {
		fmt.Fprintf(w, "end-to-end p99 %.1fms (no SLO declared)", v.SLO.ObservedP99Ms)
	}
	if v.SLO.DominantHop != "" {
		fmt.Fprintf(w, "; dominant hop %s", v.SLO.DominantHop)
	}
	if len(v.SLO.CriticalPath) > 0 {
		fmt.Fprintf(w, "\ncritical path: %s", strings.Join(v.SLO.CriticalPath, " → "))
	}
	fmt.Fprintln(w)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tWORKER\tRATE/S\tP50MS\tP99MS\tBUDGET%\tDEPTH\tFLAGS")
	for _, op := range v.Operators {
		var flags []string
		if op.Dominant {
			flags = append(flags, "dominant")
		}
		if op.Blocked {
			flags = append(flags, "blocked")
		}
		if op.Congested {
			flags = append(flags, "congested")
		}
		depth := fmt.Sprintf("%d", op.MailboxDepth)
		if op.MailboxCap > 0 {
			depth = fmt.Sprintf("%d/%d", op.MailboxDepth, op.MailboxCap)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.1f\t%.1f\t%.1f\t%s\t%s\n",
			op.Node, op.Worker, op.RateEventsPerSec, op.P50Ms, op.P99Ms,
			op.BudgetSharePct, depth, strings.Join(flags, ","))
	}
	_ = tw.Flush()

	for _, c := range v.Backpressure {
		fmt.Fprintf(w, "backpressure: %s (root %s on %s): %s\n",
			strings.Join(c.Path, " ← "), c.Root, c.RootWorker, c.Reason)
	}
	for _, s := range v.Stragglers {
		fmt.Fprintf(w, "straggler: %s — %s\n", s.Worker, s.Reason)
	}
	if len(v.Workers) > 0 {
		var parts []string
		for _, wk := range v.Workers {
			parts = append(parts, fmt.Sprintf("%s (%d parts, %.0f ev/s)", wk.Worker, wk.Partitions, wk.RateEventsPerSec))
		}
		sort.Strings(parts)
		fmt.Fprintf(w, "workers: %s\n", strings.Join(parts, ", "))
	}
	if lr := v.LastRecovery; lr != nil {
		state := "in progress"
		if lr.Complete {
			state = "complete"
		}
		var phases []string
		for _, ph := range recovery.Phases {
			if ms, ok := lr.PhaseMs[ph]; ok {
				phases = append(phases, fmt.Sprintf("%s %.1f", ph, ms))
			}
		}
		fmt.Fprintf(w, "last recovery: epoch %d, victim %q — %.1fms (%s), dominant %s [%s]\n",
			lr.Epoch, lr.Victim, lr.TotalMs, state, lr.DominantPhase, strings.Join(phases, " | "))
	}
}

// RunTop is the `tracetool top` live mode: it polls a coordinator's
// /debug/health every interval and re-renders the frame, or renders a
// single frame when once is set.
func RunTop(w io.Writer, addr string, interval time.Duration, once bool) error {
	if interval <= 0 {
		interval = time.Second
	}
	for {
		v, err := debugserver.Fetch[health.View](addr, "health")
		if err != nil {
			return err
		}
		if !once {
			fmt.Fprint(w, "\x1b[2J\x1b[H") // clear screen, home cursor
			fmt.Fprintf(w, "streammine top — %s — %s\n\n", addr, time.Now().Format("15:04:05"))
		}
		WriteHealth(w, v)
		if once {
			return nil
		}
		time.Sleep(interval)
	}
}
