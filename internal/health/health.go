// Package health is the coordinator-side live health model: it folds the
// per-node samples riding worker STATUS heartbeats (commit counts,
// per-hop finalize latency HDR summaries, mailbox/credit pressure) into
// a per-operator view that answers, while the cluster runs:
//
//   - which hop is eating the end-to-end latency budget (SLO budget
//     attribution — the paper's additive per-hop latency model applied
//     to a user-declared p99 target);
//   - why output stalled (backpressure root-cause chains walked upstream
//     from each sink to the originating operator);
//   - which worker is straggling (finalize-rate / backlog / heartbeat
//     deviation against its peers).
//
// The model is deliberately coordinator-local: folding happens on the
// existing STATUS path (no extra RPCs), and Snapshot serves
// /debug/health and the health_* series from the same state.
package health

import (
	"sync"
	"time"

	"streammine/internal/core"
	"streammine/internal/topology"
)

// Options tune the model.
type Options struct {
	// SLO is the declared end-to-end p99 latency target (0 = none).
	SLO time.Duration
	// HeartbeatInterval is the STATUS cadence; staleness thresholds
	// scale from it.
	HeartbeatInterval time.Duration
}

// Model folds worker STATUS payloads into the live per-operator view.
type Model struct {
	mu    sync.Mutex
	opts  Options
	order []string // topology node order, for stable output
	ops   map[string]*opState
	sinks []string
	work  map[string]*workerState
}

// opState is the model's view of one operator.
type opState struct {
	name      string
	inputs    []string // upstream node names (ports stripped)
	source    bool
	sink      bool
	worker    string
	partition int

	committed uint64
	finCount  uint64
	p50       time.Duration
	p99       time.Duration
	rate      float64 // committed events/sec, EWMA over folds
	lastAt    time.Time

	pressure    core.NodePressure
	hasPressure bool
}

// workerState is the model's view of one worker process.
type workerState struct {
	name   string
	lastAt time.Time
	// parts holds the latest committed count per partition this worker
	// reported, so the worker rate survives multi-partition hosting.
	parts     map[int]uint64
	lastSum   uint64
	rate      float64 // committed events/sec across partitions, EWMA
	devStreak int     // consecutive snapshots the worker looked deviant
}

// New builds a model over the deployed topology: the upstream adjacency
// for backpressure walks comes from each node's declared inputs.
func New(cfg *topology.Config, opts Options) *Model {
	if opts.SLO == 0 {
		opts.SLO = cfg.SLO()
	}
	m := &Model{
		opts: opts,
		ops:  make(map[string]*opState, len(cfg.Nodes)),
		work: make(map[string]*workerState),
	}
	for _, nc := range cfg.Nodes {
		op := &opState{
			name:      nc.Name,
			source:    nc.Type == "source",
			sink:      nc.Type == "sink",
			partition: -1,
		}
		for _, ref := range nc.Inputs {
			up, _ := topology.SplitRef(ref)
			op.inputs = append(op.inputs, up)
		}
		m.ops[nc.Name] = op
		m.order = append(m.order, nc.Name)
		if op.sink {
			m.sinks = append(m.sinks, nc.Name)
		}
	}
	return m
}

// rateAlpha is the EWMA weight of the newest rate observation.
const rateAlpha = 0.5

// Fold ingests one partition STATUS payload. Stale-epoch rejection is
// the caller's job (the coordinator already discards stale reports
// before folding).
func (m *Model) Fold(worker string, partition int, hs []core.NodeHealth, ps []core.NodePressure, now time.Time) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, h := range hs {
		op := m.ops[h.Node]
		if op == nil {
			continue
		}
		if !op.lastAt.IsZero() {
			if dt := now.Sub(op.lastAt).Seconds(); dt > 0.01 {
				inst := float64(h.Committed-op.committed) / dt
				if h.Committed < op.committed {
					inst = 0 // partition restarted; counter reset
				}
				op.rate = rateAlpha*inst + (1-rateAlpha)*op.rate
			}
		}
		op.committed = h.Committed
		op.finCount = h.FinalizeCount
		op.p50 = time.Duration(h.FinalizeP50Ns)
		op.p99 = time.Duration(h.FinalizeP99Ns)
		op.worker = worker
		op.partition = partition
		op.lastAt = now
	}
	for _, p := range ps {
		if op := m.ops[p.Node]; op != nil {
			op.pressure = p
			op.hasPressure = true
			op.worker = worker
			op.partition = partition
			if op.lastAt.IsZero() {
				op.lastAt = now
			}
		}
	}

	w := m.work[worker]
	if w == nil {
		w = &workerState{name: worker, parts: make(map[int]uint64)}
		m.work[worker] = w
	}
	var partSum uint64
	for _, h := range hs {
		partSum += h.Committed
	}
	w.parts[partition] = partSum
	var sum uint64
	for _, v := range w.parts {
		sum += v
	}
	if !w.lastAt.IsZero() {
		if dt := now.Sub(w.lastAt).Seconds(); dt > 0.01 {
			inst := float64(sum-w.lastSum) / dt
			if sum < w.lastSum {
				inst = 0
			}
			w.rate = rateAlpha*inst + (1-rateAlpha)*w.rate
			w.lastSum = sum
			w.lastAt = now
		}
	} else {
		w.lastSum = sum
		w.lastAt = now
	}
}

// RemoveWorker drops an evicted worker from the peer set (its partitions
// are being reassigned; the survivors' folds will re-own the operators).
func (m *Model) RemoveWorker(name string) {
	if m == nil {
		return
	}
	m.mu.Lock()
	delete(m.work, name)
	m.mu.Unlock()
}

// SLOTarget returns the declared end-to-end p99 target (0 = none).
func (m *Model) SLOTarget() time.Duration {
	if m == nil {
		return 0
	}
	return m.opts.SLO
}
