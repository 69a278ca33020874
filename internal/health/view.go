package health

import (
	"fmt"
	"sort"
	"time"
)

// View is the /debug/health JSON body.
type View struct {
	// SLO is the end-to-end latency budget attribution (always present;
	// TargetMs is omitted when no SLO was declared).
	SLO SLOView `json:"slo"`
	// Operators is the live per-operator view, in topology order.
	Operators []OperatorView `json:"operators"`
	// Backpressure lists one root-cause chain per stalled sink.
	Backpressure []Chain `json:"backpressure,omitempty"`
	// Stragglers lists workers deviating from their peers.
	Stragglers []Straggler `json:"stragglers,omitempty"`
	// Workers summarizes every reporting worker.
	Workers []WorkerView `json:"workers,omitempty"`
}

// SLOView decomposes the declared end-to-end p99 target across hops.
type SLOView struct {
	// TargetMs is the declared budget (topology sloP99Millis / -slo).
	TargetMs float64 `json:"targetMs,omitempty"`
	// ObservedP99Ms is the additive per-hop p99 along the critical path
	// (the paper's per-hop latency model: end-to-end latency is the sum
	// of per-hop admission→commit latencies).
	ObservedP99Ms float64 `json:"observedP99Ms"`
	// CriticalPath is the source→sink path maximizing the hop-p99 sum.
	CriticalPath []string `json:"criticalPath,omitempty"`
	// DominantHop is the operator consuming the largest budget share.
	DominantHop string `json:"dominantHop,omitempty"`
	// Violated reports ObservedP99Ms > TargetMs (false without a target).
	Violated bool `json:"violated,omitempty"`
}

// OperatorView is one operator's live health row.
type OperatorView struct {
	Node      string `json:"node"`
	Worker    string `json:"worker,omitempty"`
	Partition int    `json:"partition"`
	// RateEventsPerSec is the finalize rate (EWMA over STATUS folds).
	RateEventsPerSec float64 `json:"rateEventsPerSec"`
	Committed        uint64  `json:"committed"`
	P50Ms            float64 `json:"p50Ms,omitempty"`
	P99Ms            float64 `json:"p99Ms,omitempty"`
	// BudgetSharePct is this hop's share of the SLO budget (of the
	// observed end-to-end p99 when no target is declared).
	BudgetSharePct float64 `json:"budgetSharePct,omitempty"`
	// Dominant marks the budget-dominating hop.
	Dominant bool `json:"dominant,omitempty"`
	// OnCriticalPath marks hops on the max-latency source→sink path.
	OnCriticalPath bool `json:"onCriticalPath,omitempty"`
	// Mailbox/credit pressure from the latest STATUS fold.
	MailboxDepth int `json:"mailboxDepth,omitempty"`
	MailboxCap   int `json:"mailboxCap,omitempty"`
	CreditQueued int `json:"creditQueued,omitempty"`
	// Blocked: outputs parked awaiting downstream credits. Congested:
	// mailbox at ≥80% of its cap, or past the capless backlog floor.
	Blocked   bool `json:"blocked,omitempty"`
	Congested bool `json:"congested,omitempty"`
}

// Chain is one backpressure root-cause chain: the path from a stalled
// sink upstream to the operator that originates the stall.
type Chain struct {
	Sink string `json:"sink"`
	// Path runs sink → … → root.
	Path       []string `json:"path"`
	Root       string   `json:"root"`
	RootWorker string   `json:"rootWorker,omitempty"`
	Reason     string   `json:"reason"`
}

// Straggler is one worker deviating from its peers.
type Straggler struct {
	Worker               string  `json:"worker"`
	RateEventsPerSec     float64 `json:"rateEventsPerSec"`
	PeerRateEventsPerSec float64 `json:"peerRateEventsPerSec,omitempty"`
	BacklogEvents        int     `json:"backlogEvents,omitempty"`
	StatusAgeMs          float64 `json:"statusAgeMs"`
	Reason               string  `json:"reason"`
}

// WorkerView summarizes one reporting worker.
type WorkerView struct {
	Worker           string  `json:"worker"`
	RateEventsPerSec float64 `json:"rateEventsPerSec"`
	StatusAgeMs      float64 `json:"statusAgeMs"`
	Partitions       int     `json:"partitions"`
	BacklogEvents    int     `json:"backlogEvents"`
	Straggler        bool    `json:"straggler,omitempty"`
}

// congestFloor is the capless-mailbox backlog that counts as congestion:
// without a configured mailbox cap there is no 80%-full signal, so a
// node whose queue holds this many undrained events is treated as the
// choke point.
const congestFloor = 64

// strugglerStreak is how many consecutive snapshots a worker must look
// deviant before it is flagged — one-poll blips don't page anyone.
const stragglerStreak = 2

// Snapshot renders the live view. It is called from /debug/health and
// metric scrapes — off the hot path — and may update straggler hysteresis
// counters.
func (m *Model) Snapshot() *View {
	return m.snapshotAt(time.Now())
}

func (m *Model) snapshotAt(now time.Time) *View {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	v := &View{}
	m.sloLocked(v)
	m.operatorsLocked(v)
	m.backpressureLocked(v, now)
	m.workersLocked(v, now)
	return v
}

// blocked reports outputs parked awaiting downstream credits.
func (op *opState) blocked() bool {
	return op.hasPressure && op.pressure.CreditQueued > 0
}

// congested reports a mailbox at ≥80% of its cap, or past the capless
// backlog floor.
func (op *opState) congested() bool {
	if !op.hasPressure {
		return false
	}
	p := op.pressure
	if p.DataCap > 0 {
		return 5*p.DataDepth >= 4*p.DataCap
	}
	return p.DataDepth >= congestFloor
}

// sloLocked computes the budget attribution: the critical (max hop-p99
// sum) source→sink path, the observed end-to-end p99 as its sum, and the
// dominant hop.
func (m *Model) sloLocked(v *View) {
	// Longest path through the DAG by memoized DFS over upstream edges.
	type best struct {
		sum  time.Duration
		from string // chosen upstream ("" at a source)
	}
	memo := make(map[string]best, len(m.ops))
	var visit func(name string, onStack map[string]bool) best
	visit = func(name string, onStack map[string]bool) best {
		if b, ok := memo[name]; ok {
			return b
		}
		if onStack[name] {
			return best{} // defensive: topologies are validated DAGs
		}
		onStack[name] = true
		defer delete(onStack, name)
		op := m.ops[name]
		if op == nil {
			return best{}
		}
		var bestUp string
		bestUpSum := time.Duration(-1)
		for _, up := range op.inputs {
			if ub := visit(up, onStack); bestUpSum < 0 || ub.sum > bestUpSum {
				bestUp, bestUpSum = up, ub.sum
			}
		}
		b := best{sum: op.p99}
		if bestUpSum >= 0 {
			b.sum += bestUpSum
			b.from = bestUp
		}
		memo[name] = b
		return b
	}
	onStack := make(map[string]bool)
	var critSink string
	var critSum time.Duration
	for _, s := range m.sinks {
		if b := visit(s, onStack); critSink == "" || b.sum > critSum {
			critSink, critSum = s, b.sum
		}
	}
	// Reconstruct the path sink→source, then reverse to source→sink.
	var path []string
	for cur := critSink; cur != ""; cur = memo[cur].from {
		path = append(path, cur)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	v.SLO = SLOView{
		TargetMs:      float64(m.opts.SLO) / float64(time.Millisecond),
		ObservedP99Ms: float64(critSum) / float64(time.Millisecond),
		CriticalPath:  path,
		Violated:      m.opts.SLO > 0 && critSum > m.opts.SLO,
	}
	var domHop string
	var domP99 time.Duration
	for _, name := range path {
		if op := m.ops[name]; op != nil && op.p99 > domP99 {
			domHop, domP99 = name, op.p99
		}
	}
	v.SLO.DominantHop = domHop
}

// operatorsLocked fills the per-operator rows, attributing each hop's
// budget share against the target (or the observed sum without one).
func (m *Model) operatorsLocked(v *View) {
	denom := m.opts.SLO
	if denom <= 0 {
		denom = time.Duration(v.SLO.ObservedP99Ms * float64(time.Millisecond))
	}
	onPath := make(map[string]bool, len(v.SLO.CriticalPath))
	for _, n := range v.SLO.CriticalPath {
		onPath[n] = true
	}
	for _, name := range m.order {
		op := m.ops[name]
		row := OperatorView{
			Node:             name,
			Worker:           op.worker,
			Partition:        op.partition,
			RateEventsPerSec: round1(op.rate),
			Committed:        op.committed,
			P50Ms:            float64(op.p50) / float64(time.Millisecond),
			P99Ms:            float64(op.p99) / float64(time.Millisecond),
			OnCriticalPath:   onPath[name],
			Dominant:         name == v.SLO.DominantHop && op.p99 > 0,
			Blocked:          op.blocked(),
			Congested:        op.congested(),
		}
		if denom > 0 {
			row.BudgetSharePct = round1(100 * float64(op.p99) / float64(denom))
		}
		if op.hasPressure {
			row.MailboxDepth = op.pressure.DataDepth
			row.MailboxCap = op.pressure.DataCap
			row.CreditQueued = op.pressure.CreditQueued
		}
		v.Operators = append(v.Operators, row)
	}
}

// backpressureLocked walks each sink's upstream cone for the most
// backlogged problem node and names it as the chain's root cause.
func (m *Model) backpressureLocked(v *View, now time.Time) {
	for _, sink := range m.sinks {
		// DFS for the problem node with the largest backlog score; keep
		// the path that reaches it.
		var bestRoot *opState
		var bestScore int
		var bestPath []string
		var walk func(name string, path []string, seen map[string]bool)
		walk = func(name string, path []string, seen map[string]bool) {
			if seen[name] {
				return
			}
			seen[name] = true
			op := m.ops[name]
			if op == nil {
				return
			}
			path = append(path, name)
			if op.blocked() || op.congested() {
				score := 1 + op.pressure.DataDepth + op.pressure.CreditQueued
				// Prefer the furthest-upstream problem at equal score:
				// DFS reaches it last along the path, so >= keeps it.
				if score >= bestScore {
					bestScore = score
					bestRoot = op
					bestPath = append([]string(nil), path...)
				}
			}
			for _, up := range op.inputs {
				walk(up, path, seen)
			}
		}
		walk(sink, nil, make(map[string]bool))
		if bestRoot == nil {
			continue
		}
		c := Chain{
			Sink:       sink,
			Path:       bestPath,
			Root:       bestRoot.name,
			RootWorker: bestRoot.worker,
			Reason:     chainReason(bestRoot),
		}
		if !bestRoot.lastAt.IsZero() {
			if age := now.Sub(bestRoot.lastAt); age > 4*m.opts.HeartbeatInterval {
				c.Reason += fmt.Sprintf("; last report %s ago", age.Round(time.Millisecond))
			}
		}
		v.Backpressure = append(v.Backpressure, c)
	}
}

// chainReason explains why the root node is the stall's origin.
func chainReason(op *opState) string {
	p := op.pressure
	switch {
	case op.congested() && !op.blocked():
		if p.DataCap > 0 {
			return fmt.Sprintf("mailbox %d/%d full and outputs not credit-blocked — slowest consumer on the chain", p.DataDepth, p.DataCap)
		}
		return fmt.Sprintf("mailbox backlog %d events and outputs not credit-blocked — processing or egress bottleneck", p.DataDepth)
	case op.congested():
		return fmt.Sprintf("backlogged (%d queued) while awaiting downstream credits (%d outputs parked)", p.DataDepth, p.CreditQueued)
	default:
		return fmt.Sprintf("outputs parked awaiting downstream credits (%d queued)", p.CreditQueued)
	}
}

// workersLocked fills the worker summaries and runs peer-deviation
// straggler detection with a two-snapshot hysteresis.
func (m *Model) workersLocked(v *View, now time.Time) {
	names := make([]string, 0, len(m.work))
	for n := range m.work {
		names = append(names, n)
	}
	sort.Strings(names)

	backlog := make(map[string]int, len(m.work))
	partsOf := make(map[string]map[int]bool, len(m.work))
	for _, op := range m.ops {
		if op.worker == "" {
			continue
		}
		if op.hasPressure {
			backlog[op.worker] += op.pressure.DataDepth
		}
		if partsOf[op.worker] == nil {
			partsOf[op.worker] = make(map[int]bool)
		}
		if op.partition >= 0 {
			partsOf[op.worker][op.partition] = true
		}
	}

	for _, name := range names {
		w := m.work[name]
		age := time.Duration(0)
		if !w.lastAt.IsZero() {
			age = now.Sub(w.lastAt)
		}
		peerRateMax := 0.0
		peerBacklogMax := 0
		for _, peer := range names {
			if peer == name {
				continue
			}
			if r := m.work[peer].rate; r > peerRateMax {
				peerRateMax = r
			}
			if b := backlog[peer]; b > peerBacklogMax {
				peerBacklogMax = b
			}
		}
		var reason string
		if len(names) >= 2 {
			staleAfter := 4 * m.opts.HeartbeatInterval
			if staleAfter < 400*time.Millisecond {
				staleAfter = 400 * time.Millisecond
			}
			peerFloor := peerBacklogMax
			if peerFloor < congestFloor/4 {
				peerFloor = congestFloor / 4
			}
			switch {
			case age > staleAfter:
				reason = fmt.Sprintf("status reports stale for %s (peers current)", age.Round(time.Millisecond))
			case backlog[name] >= congestFloor && backlog[name] >= 4*peerFloor:
				reason = fmt.Sprintf("mailbox backlog %d events vs %d on the busiest peer", backlog[name], peerBacklogMax)
			// The rate rule only applies to workers that have ever
			// committed: a worker hosting only sources finalizes
			// nothing by design, and a wedged-from-birth worker is
			// caught by the backlog and staleness rules instead.
			case w.lastSum > 0 && peerRateMax >= 50 && w.rate < 0.5*peerRateMax:
				reason = fmt.Sprintf("finalize rate %.0f/s under half the fastest peer's %.0f/s", w.rate, peerRateMax)
			}
		}
		if reason != "" {
			w.devStreak++
		} else {
			w.devStreak = 0
		}
		flagged := w.devStreak >= stragglerStreak
		v.Workers = append(v.Workers, WorkerView{
			Worker:           name,
			RateEventsPerSec: round1(w.rate),
			StatusAgeMs:      float64(age) / float64(time.Millisecond),
			Partitions:       len(partsOf[name]),
			BacklogEvents:    backlog[name],
			Straggler:        flagged,
		})
		if flagged {
			v.Stragglers = append(v.Stragglers, Straggler{
				Worker:               name,
				RateEventsPerSec:     round1(w.rate),
				PeerRateEventsPerSec: round1(peerRateMax),
				BacklogEvents:        backlog[name],
				StatusAgeMs:          float64(age) / float64(time.Millisecond),
				Reason:               reason,
			})
		}
	}
}

// round1 keeps JSON rates readable (one decimal).
func round1(v float64) float64 {
	return float64(int64(v*10+0.5)) / 10
}
