package profiler

import "sort"

// Summary is the compact, mergeable waste record: per-node ledgers plus
// the top-K conflict heatmap. It is the JSON body of /debug/speculation,
// the payload workers attach to STATUS heartbeats, and the unit the
// coordinator merges for its own /debug/speculation.
type Summary struct {
	Nodes            []NodeWaste  `json:"nodes"`
	Heatmap          []HeatEntry  `json:"heatmap"`
	CausedBy         []CauseEntry `json:"caused_by,omitempty"`
	WitnessesDropped uint64       `json:"witnesses_dropped,omitempty"`
}

// NodeWaste is one operator's ledger snapshot. Maps are keyed by abort
// cause ("conflict", "revoke", "replacement", "error") or witness kind
// ("write-write", "validation", "cascade"). Every figure is a column of
// the engine's node ledger.
type NodeWaste struct {
	Node            string            `json:"node"`
	AbortedAttempts map[string]uint64 `json:"aborted_attempts,omitempty"`
	WastedCPUNs     map[string]int64  `json:"wasted_cpu_ns,omitempty"`
	AttemptCPUNs    int64             `json:"attempt_cpu_ns,omitempty"`
	Reexecutions    uint64            `json:"reexecutions,omitempty"`
	RevokedOutputs  uint64            `json:"revoked_outputs,omitempty"`
	Witnesses       map[string]uint64 `json:"witnesses,omitempty"`
	SpecDepthSum    int64             `json:"spec_depth_sum,omitempty"`
	SpecDepthMax    int64             `json:"spec_depth_max,omitempty"`
	SpecDepthCount  uint64            `json:"spec_depth_count,omitempty"`
}

// TotalAborted sums the node's aborted attempts over all causes.
func (nw NodeWaste) TotalAborted() uint64 {
	var n uint64
	for _, v := range nw.AbortedAttempts {
		n += v
	}
	return n
}

// TotalWastedNs sums the node's wasted CPU over all causes.
func (nw NodeWaste) TotalWastedNs() int64 {
	var ns int64
	for _, v := range nw.WastedCPUNs {
		ns += v
	}
	return ns
}

// HeatEntry is one heatmap cell: conflicts witnessed on one state bucket
// of one operator. Err is the space-saving overestimation bound.
type HeatEntry struct {
	Node  string `json:"node"`
	State string `json:"state"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// CauseEntry charges aborted attempts to the upstream operator that caused
// them (revoke/replacement origin).
type CauseEntry struct {
	Source string `json:"source"`
	Count  uint64 `json:"count"`
}

// TotalAborted sums aborted attempts across all nodes.
func (s *Summary) TotalAborted() uint64 {
	var n uint64
	for _, nw := range s.Nodes {
		n += nw.TotalAborted()
	}
	return n
}

// TotalWastedNs sums wasted CPU across all nodes.
func (s *Summary) TotalWastedNs() int64 {
	var ns int64
	for _, nw := range s.Nodes {
		ns += nw.TotalWastedNs()
	}
	return ns
}

// TotalAttemptNs sums attempt CPU across all nodes.
func (s *Summary) TotalAttemptNs() int64 {
	var ns int64
	for _, nw := range s.Nodes {
		ns += nw.AttemptCPUNs
	}
	return ns
}

// WastePct is wasted CPU as a percentage of all attempt CPU.
func (s *Summary) WastePct() float64 {
	total := s.TotalAttemptNs()
	if total <= 0 {
		return 0
	}
	return 100 * float64(s.TotalWastedNs()) / float64(total)
}

// Merge folds several summaries (typically one per cluster partition) into
// one: node ledgers are summed by node name, heatmaps are re-sketched into
// one Heatmap, caused-by charges are summed.
func Merge(parts ...*Summary) *Summary {
	out := &Summary{}
	byNode := make(map[string]*NodeWaste)
	heat := NewHeatmap()
	caused := make(map[string]uint64)
	var order []string
	for _, part := range parts {
		if part == nil {
			continue
		}
		out.WitnessesDropped += part.WitnessesDropped
		for _, nw := range part.Nodes {
			dst, ok := byNode[nw.Node]
			if !ok {
				cp := NodeWaste{
					Node:            nw.Node,
					AbortedAttempts: make(map[string]uint64),
					WastedCPUNs:     make(map[string]int64),
					Witnesses:       make(map[string]uint64),
				}
				byNode[nw.Node] = &cp
				dst = &cp
				order = append(order, nw.Node)
			}
			for c, v := range nw.AbortedAttempts {
				dst.AbortedAttempts[c] += v
			}
			for c, v := range nw.WastedCPUNs {
				dst.WastedCPUNs[c] += v
			}
			for c, v := range nw.Witnesses {
				dst.Witnesses[c] += v
			}
			dst.AttemptCPUNs += nw.AttemptCPUNs
			dst.Reexecutions += nw.Reexecutions
			dst.RevokedOutputs += nw.RevokedOutputs
			dst.SpecDepthSum += nw.SpecDepthSum
			dst.SpecDepthCount += nw.SpecDepthCount
			if nw.SpecDepthMax > dst.SpecDepthMax {
				dst.SpecDepthMax = nw.SpecDepthMax
			}
		}
		for _, he := range part.Heatmap {
			heat.Add(he.Node, he.State, he.Count, he.Err)
		}
		for _, ce := range part.CausedBy {
			caused[ce.Source] += ce.Count
		}
	}
	sort.Strings(order)
	for _, name := range order {
		out.Nodes = append(out.Nodes, *byNode[name])
	}
	out.Heatmap = heat.Entries()
	out.CausedBy = CauseList(caused)
	return out
}

// CauseList turns caused-by counts keyed by source into CausedBy's order:
// most aborts first, ties by source name.
func CauseList(counts map[string]uint64) []CauseEntry {
	var es []CauseEntry
	for src, n := range counts {
		es = append(es, CauseEntry{Source: src, Count: n})
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].Count != es[j].Count {
			return es[i].Count > es[j].Count
		}
		return es[i].Source < es[j].Source
	})
	return es
}

// heatKey identifies a heatmap cell.
type heatKey struct {
	node, state string
}

// heatK bounds the conflict heatmap.
const heatK = 64

// Heatmap is the conflict heatmap: a Metwally et al. space-saving top-k
// sketch of (operator, state bucket) cells with exactly k counters; an
// unseen key evicts the minimum and inherits its count as the
// overestimation error. Counts are exact for keys that never evicted. It
// is not safe for concurrent use.
type Heatmap struct {
	k     int
	items map[heatKey]*ssItem
}

type ssItem struct {
	count, err uint64
}

// NewHeatmap returns an empty heatmap of the top 64 cells.
func NewHeatmap() *Heatmap { return newHeatmap(heatK) }

func newHeatmap(k int) *Heatmap {
	return &Heatmap{k: k, items: make(map[heatKey]*ssItem, k)}
}

// Add counts n conflicts on one state bucket of one operator; err is the
// overestimation they already carry (nonzero when re-sketching a cell).
func (s *Heatmap) Add(node, state string, n, err uint64) {
	key := heatKey{node: node, state: state}
	if it, ok := s.items[key]; ok {
		it.count += n
		it.err += err
		return
	}
	if len(s.items) < s.k {
		s.items[key] = &ssItem{count: n, err: err}
		return
	}
	var minKey heatKey
	var min *ssItem
	for k, it := range s.items {
		if min == nil || it.count < min.count {
			minKey, min = k, it
		}
	}
	delete(s.items, minKey)
	s.items[key] = &ssItem{count: min.count + n, err: min.count + err}
}

// Entries returns the sketch's cells sorted by descending count.
func (s *Heatmap) Entries() []HeatEntry {
	out := make([]HeatEntry, 0, len(s.items))
	for key, it := range s.items {
		out = append(out, HeatEntry{Node: key.node, State: key.state, Count: it.count, Err: it.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].State < out[j].State
	})
	return out
}
