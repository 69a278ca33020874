package tracetool

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"streammine/internal/metrics"
	"streammine/internal/profiler"
)

// OperatorWaste aggregates the wasted work visible in a trace for one
// operator: abort spans by cause and revoked outputs, optionally joined
// with the operator's profiler ledger (CPU, re-executions, witnesses).
type OperatorWaste struct {
	Node    string            `json:"node"`
	Aborts  map[string]uint64 `json:"aborts"`
	Revokes uint64            `json:"revokes,omitempty"`
	// Ledger is the matching per-operator profiler record when a waste
	// summary (from /debug/speculation) was joined.
	Ledger *profiler.NodeWaste `json:"ledger,omitempty"`
}

// TotalAborts sums the operator's abort spans over all causes.
func (ow OperatorWaste) TotalAborts() uint64 {
	var n uint64
	for _, v := range ow.Aborts {
		n += v
	}
	return n
}

// LineageWaste scores one event lineage by the rollback churn it
// suffered: abort and revoke spans along its journey, and its wall span.
type LineageWaste struct {
	Trace   string   `json:"trace"`
	Aborts  int      `json:"aborts"`
	Revokes int      `json:"revokes,omitempty"`
	Nodes   []string `json:"nodes"`
	SpanNs  int64    `json:"span_ns"`
}

// WasteReport is the joined waste view: per-operator breakdowns from the
// trace (optionally merged with profiler ledgers) plus the most-wasted
// lineages.
type WasteReport struct {
	Operators []OperatorWaste `json:"operators"`
	Lineages  []LineageWaste  `json:"lineages,omitempty"`
	// Summary is the joined profiler summary, echoed for heatmap access.
	Summary *profiler.Summary `json:"summary,omitempty"`
}

// abortCause extracts the cause from an abort span's info ("cause=...").
func abortCause(info string) string {
	for _, kv := range strings.Fields(info) {
		if v, ok := strings.CutPrefix(kv, "cause="); ok {
			return v
		}
	}
	return "unknown"
}

// Waste builds the waste report: per-operator abort/revoke counts from
// the merged trace, the top wasted lineages (ranked by abort count, then
// revokes, then span), and — when sum is non-nil — each operator's
// profiler ledger joined by node name.
func (s *Set) Waste(sum *profiler.Summary, top int) *WasteReport {
	if top <= 0 {
		top = 10
	}
	byNode := make(map[string]*OperatorWaste)
	var order []string
	opOf := func(node string) *OperatorWaste {
		ow := byNode[node]
		if ow == nil {
			ow = &OperatorWaste{Node: node, Aborts: make(map[string]uint64)}
			byNode[node] = ow
			order = append(order, node)
		}
		return ow
	}
	for _, sp := range s.Spans {
		switch sp.Phase {
		case metrics.PhaseAbort:
			opOf(sp.Node).Aborts[abortCause(sp.Info)]++
		case metrics.PhaseRevoke:
			opOf(sp.Node).Revokes++
		}
	}
	// Join the profiler ledgers by node name; ledger-only operators (no
	// abort span survived sampling) still get a row.
	if sum != nil {
		for i := range sum.Nodes {
			nw := &sum.Nodes[i]
			opOf(nw.Node).Ledger = nw
		}
	}

	var lineages []LineageWaste
	for _, l := range s.Lineages() {
		lw := LineageWaste{Trace: l.Trace}
		seen := make(map[string]bool)
		for _, sp := range l.Spans {
			switch sp.Phase {
			case metrics.PhaseAbort:
				lw.Aborts++
			case metrics.PhaseRevoke:
				lw.Revokes++
			}
			if sp.Node != "" && !seen[sp.Node] {
				seen[sp.Node] = true
				lw.Nodes = append(lw.Nodes, sp.Node)
			}
		}
		if lw.Aborts == 0 && lw.Revokes == 0 {
			continue
		}
		lw.SpanNs = l.Spans[len(l.Spans)-1].TS - l.Spans[0].TS
		lineages = append(lineages, lw)
	}
	sort.Slice(lineages, func(i, j int) bool {
		if lineages[i].Aborts != lineages[j].Aborts {
			return lineages[i].Aborts > lineages[j].Aborts
		}
		if lineages[i].Revokes != lineages[j].Revokes {
			return lineages[i].Revokes > lineages[j].Revokes
		}
		if lineages[i].SpanNs != lineages[j].SpanNs {
			return lineages[i].SpanNs > lineages[j].SpanNs
		}
		return lineages[i].Trace < lineages[j].Trace
	})
	if len(lineages) > top {
		lineages = lineages[:top]
	}

	r := &WasteReport{Lineages: lineages, Summary: sum}
	sort.Strings(order)
	for _, node := range order {
		r.Operators = append(r.Operators, *byNode[node])
	}
	return r
}

// ReadSummary parses a waste summary JSON file saved from
// /debug/speculation (a worker's, or the coordinator's cluster-wide merge).
func ReadSummary(path string) (*profiler.Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s profiler.Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// wasteCauses is the fixed column order of the per-operator table; trace
// causes outside this list (future additions) fold into the total only.
var wasteCauses = []string{"conflict", "revoke", "replacement", "error"}

// WriteReport renders the waste report as aligned text tables.
func (r *WasteReport) WriteReport(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Speculation waste by operator")
	header := "operator\taborts\t" + strings.Join(wasteCauses, "\t") + "\trevokes"
	if r.Summary != nil {
		header += "\twasted-cpu-ms\treexecs\trevoked-outs"
	}
	fmt.Fprintln(tw, header)
	for _, ow := range r.Operators {
		row := fmt.Sprintf("%s\t%d", ow.Node, ow.TotalAborts())
		for _, c := range wasteCauses {
			row += fmt.Sprintf("\t%d", ow.Aborts[c])
		}
		row += fmt.Sprintf("\t%d", ow.Revokes)
		if r.Summary != nil {
			if nw := ow.Ledger; nw != nil {
				row += fmt.Sprintf("\t%.2f\t%d\t%d",
					float64(nw.TotalWastedNs())/1e6, nw.Reexecutions, nw.RevokedOutputs)
			} else {
				row += "\t-\t-\t-"
			}
		}
		fmt.Fprintln(tw, row)
	}
	tw.Flush()

	if r.Summary != nil {
		fmt.Fprintf(w, "\nLedger: %.1f%% of attempt CPU wasted (%.2f ms of %.2f ms)\n",
			r.Summary.WastePct(),
			float64(r.Summary.TotalWastedNs())/1e6,
			float64(r.Summary.TotalAttemptNs())/1e6)
		if len(r.Summary.Heatmap) > 0 {
			fmt.Fprintln(w, "\nConflict heatmap (operator, state bucket)")
			ht := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(ht, "operator\tstate\tconflicts\t±err")
			for _, he := range r.Summary.Heatmap {
				fmt.Fprintf(ht, "%s\t%s\t%d\t%d\n", he.Node, he.State, he.Count, he.Err)
			}
			ht.Flush()
		}
	}

	if len(r.Lineages) > 0 {
		fmt.Fprintln(w, "\nTop wasted lineages")
		lt := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(lt, "trace\taborts\trevokes\tspan-ms\tpath")
		for _, lw := range r.Lineages {
			fmt.Fprintf(lt, "%s\t%d\t%d\t%.2f\t%s\n",
				lw.Trace, lw.Aborts, lw.Revokes,
				float64(lw.SpanNs)/1e6, strings.Join(lw.Nodes, "→"))
		}
		lt.Flush()
	}
}
