package experiments

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"streammine/internal/baseline"
	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/wal"
)

// ExternalizationResult summarizes the §4 closing scenario.
type ExternalizationResult struct {
	MeanSpeculative time.Duration
	MeanFinal       time.Duration
}

// RunExternalization reproduces the paper's closing scenario (§4): when
// the environment is allowed to consume speculative records (filtering
// non-finalized ones with a reader-side library — here the subscription
// callback), the observed processing latency becomes independent of the
// logging latency.
func RunExternalization(cfg Config) (*Table, ExternalizationResult, error) {
	diskLat := 10 * time.Millisecond
	events := 30
	if cfg.Quick {
		diskLat = 2 * time.Millisecond
		events = 10
	}
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	pools := make(map[graph.NodeID]*storage.Pool)
	prev := src
	var last graph.NodeID
	var cleanup []*storage.Pool
	for i := 0; i < 3; i++ {
		n := g.AddNode(graph.Node{
			Name:        fmt.Sprintf("op%d", i),
			Op:          &operator.Passthrough{LogDecision: true},
			Speculative: true,
		})
		p := storage.NewPool([]storage.Disk{storage.NewSimDisk(diskLat, 0)})
		pools[n] = p
		cleanup = append(cleanup, p)
		g.Connect(prev, 0, n, 0)
		prev, last = n, n
	}
	defer func() {
		for _, p := range cleanup {
			_ = p.Close()
		}
	}()
	shared := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	defer shared.Close()

	eng, err := core.New(g, withMetrics(core.Options{Pool: shared, NodePools: pools, Seed: 31}))
	if err != nil {
		return nil, ExternalizationResult{}, err
	}
	if err := eng.Start(); err != nil {
		return nil, ExternalizationResult{}, err
	}
	defer eng.Stop()

	sink := newLatencySink()
	if err := eng.Subscribe(last, 0, sink.fn); err != nil {
		return nil, ExternalizationResult{}, err
	}
	handle, err := eng.Source(src)
	if err != nil {
		return nil, ExternalizationResult{}, err
	}

	var specTotal, finalTotal time.Duration
	for i := 0; i < events; i++ {
		if _, err := handle.Emit(uint64(i), sink.stamp()); err != nil {
			return nil, ExternalizationResult{}, err
		}
		select {
		case lat := <-sink.specs:
			specTotal += lat
		case <-time.After(10 * time.Second):
			return nil, ExternalizationResult{}, fmt.Errorf("no speculative output for event %d", i)
		}
		lat, err := sink.waitFinal(10 * time.Second)
		if err != nil {
			return nil, ExternalizationResult{}, err
		}
		finalTotal += lat
	}
	res := ExternalizationResult{
		MeanSpeculative: specTotal / time.Duration(events),
		MeanFinal:       finalTotal / time.Duration(events),
	}
	table := &Table{
		ID:     "external",
		Title:  "Speculative externalization (§4 closing scenario), 3 logging operators",
		Header: []string{"output kind", "mean latency"},
		Rows: [][]string{
			{"speculative record (reader filters)", res.MeanSpeculative.String()},
			{"finalized record", res.MeanFinal.String()},
		},
	}
	return table, res, nil
}

// RecoveryResult summarizes the precise-recovery experiment.
type RecoveryResult struct {
	Events             int
	DuplicatesObserved int
	ContentMismatches  int
	ReexecutedTasks    uint64
}

// RunRecovery reproduces the §2.2 recovery protocol end to end: the
// stateful Processor crashes mid-stream, restores its latest checkpoint,
// replays the logged input order and decisions, and downstream observes a
// final output sequence identical to a failure-free run (duplicates are
// byte-identical and silently dropped).
func RunRecovery(cfg Config) (*Table, RecoveryResult, error) {
	total := 120
	ckpt := 15
	if cfg.Quick {
		total = 40
		ckpt = 8
	}
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{
		Name:            "proc",
		Op:              &operator.Classifier{Classes: 5},
		Traits:          operator.ClassifierTraits(5),
		Speculative:     true,
		CheckpointEvery: ckpt,
	})
	g.Connect(src, 0, proc, 0)

	disk := storage.NewMemDisk()
	pool := storage.NewPool([]storage.Disk{disk})
	defer pool.Close()
	eng, err := core.New(g, withMetrics(core.Options{
		Pool: pool, Seed: 77,
		LogScanner: func() ([]wal.Record, error) { return wal.Scan(disk.Contents()) },
	}))
	if err != nil {
		return nil, RecoveryResult{}, err
	}
	if err := eng.Start(); err != nil {
		return nil, RecoveryResult{}, err
	}
	defer eng.Stop()

	var mu sync.Mutex
	byID := make(map[event.ID][]byte)
	res := RecoveryResult{}
	if err := eng.Subscribe(proc, 0, func(ev event.Event, final bool) {
		if !final {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := byID[ev.ID]; ok {
			res.DuplicatesObserved++
			if !bytes.Equal(prev, ev.Payload) {
				res.ContentMismatches++
			}
			return
		}
		byID[ev.ID] = append([]byte(nil), ev.Payload...)
	}); err != nil {
		return nil, RecoveryResult{}, err
	}
	handle, err := eng.Source(src)
	if err != nil {
		return nil, RecoveryResult{}, err
	}

	emit := func(from, to int) error {
		for i := from; i < to; i++ {
			if _, err := handle.Emit(uint64(i), nil); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit(0, total/2); err != nil {
		return nil, RecoveryResult{}, err
	}
	waitOutputs := func(n int) error {
		deadline := time.Now().Add(30 * time.Second)
		for {
			mu.Lock()
			have := len(byID)
			mu.Unlock()
			if have >= n {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("stalled at %d of %d outputs", have, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := waitOutputs(total / 4); err != nil {
		return nil, RecoveryResult{}, err
	}

	if err := eng.Crash(proc); err != nil {
		return nil, RecoveryResult{}, err
	}
	if err := eng.Recover(proc); err != nil {
		return nil, RecoveryResult{}, err
	}
	if err := emit(total/2, total); err != nil {
		return nil, RecoveryResult{}, err
	}
	if err := waitOutputs(total); err != nil {
		return nil, RecoveryResult{}, err
	}
	eng.Drain()
	if err := eng.Err(); err != nil {
		return nil, RecoveryResult{}, err
	}
	stats, err := eng.Stats(proc)
	if err != nil {
		return nil, RecoveryResult{}, err
	}
	mu.Lock()
	res.Events = len(byID)
	res.ReexecutedTasks = stats.Reexecuted
	mu.Unlock()

	table := &Table{
		ID:     "recovery",
		Title:  "Precise recovery: crash + checkpoint restore + log replay",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"distinct final outputs", fmt.Sprintf("%d (want %d)", res.Events, total)},
			{"duplicate finals observed downstream", fmt.Sprintf("%d", res.DuplicatesObserved)},
			{"duplicates with mismatching content", fmt.Sprintf("%d (precise recovery requires 0)", res.ContentMismatches)},
		},
	}
	return table, res, nil
}

// RunRelatedWork prints the §5 comparison using the analytic latency
// models: per-event output latency of each precise-recovery approach on
// the same pipeline parameters.
func RunRelatedWork(cfg Config) (*Table, error) {
	p := baseline.Params{
		Hops:              3,
		DiskLatency:       10 * time.Millisecond,
		CheckpointLatency: 25 * time.Millisecond,
		ReplicaRTT:        2 * time.Millisecond,
		DecisionsPerEvent: 2,
		Processing:        100 * time.Microsecond,
		Transport:         100 * time.Microsecond,
	}
	table := &Table{
		ID:     "related",
		Title:  "Modelled per-event latency of precise-recovery approaches (3 hops, 10ms disk)",
		Header: []string{"approach", "latency"},
	}
	for _, a := range baseline.All() {
		lat, err := baseline.Estimate(a, p)
		if err != nil {
			return nil, err
		}
		table.Rows = append(table.Rows, []string{string(a), lat.String()})
	}
	return table, nil
}
