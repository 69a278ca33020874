package experiments

import (
	"fmt"
	"time"

	"streammine/internal/core"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
)

// Fig5Result is one state-size phase of Figure 5.
type Fig5Result struct {
	// StateSize is the number of independent state fields (classes).
	StateSize int
	// SpeedUp is sequential wall time / parallel (8-thread) wall time.
	SpeedUp float64
	// AbortRate is aborted executions / total executions in the parallel
	// run, in percent.
	AbortRate float64
}

// RunFig5 reproduces Figure 5: local speed-up and abort rate of an
// optimistically parallelized operator as the available parallelism in the
// workload varies. The paper varies the number of fields in the component
// state over time; here each field count is one phase. One field means any
// two concurrent executions collide (no parallelism, high abort rate);
// many fields let speculative executions commute.
func RunFig5(cfg Config) (*Table, []Fig5Result, error) {
	// The nominal cost must dwarf the host's sleep-granularity overhead
	// (~1 ms) or the sequential run pays disproportionally more overhead
	// per event and the speed-up overshoots the worker count.
	sizes := []int{1, 2, 4, 8, 16, 32, 64}
	events := 200
	cost := 2 * time.Millisecond
	if cfg.Quick {
		sizes = []int{1, 8, 64}
		events = 120
		cost = 200 * time.Microsecond
	}
	const parallelWorkers = 8

	table := &Table{
		ID:     "fig5",
		Title:  "Speed-up and abort rate vs state size (8 worker threads)",
		Header: []string{"state fields", "speed-up", "aborts %"},
	}
	var results []Fig5Result
	for _, k := range sizes {
		seq, _, err := fig5Phase(k, 1, events, cost)
		if err != nil {
			return nil, nil, fmt.Errorf("fig5 k=%d sequential: %w", k, err)
		}
		par, stats, err := fig5Phase(k, parallelWorkers, events, cost)
		if err != nil {
			return nil, nil, fmt.Errorf("fig5 k=%d parallel: %w", k, err)
		}
		executions := stats.Committed + stats.Aborts
		abortPct := 0.0
		if executions > 0 {
			abortPct = 100 * float64(stats.Aborts) / float64(executions)
		}
		r := Fig5Result{
			StateSize: k,
			SpeedUp:   float64(seq) / float64(par),
			AbortRate: abortPct,
		}
		results = append(results, r)
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", k),
			fmt.Sprintf("%.2f", r.SpeedUp),
			fmt.Sprintf("%.1f", r.AbortRate),
		})
	}
	return table, results, nil
}

// fig5Phase measures the wall time to process `events` through a costly
// classifier with k state fields and the given worker count.
func fig5Phase(k, workers, events int, cost time.Duration) (time.Duration, core.NodeStats, error) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{
		Name:        "proc",
		Op:          &costlyClassifier{classes: k, cost: cost},
		Traits:      operator.Traits{Stateful: true, Deterministic: true, StateWords: k},
		Speculative: true,
		Workers:     workers,
	})
	g.Connect(src, 0, proc, 0)

	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	defer pool.Close()
	eng, err := core.New(g, core.Options{Pool: pool, Seed: uint64(k)})
	if err != nil {
		return 0, core.NodeStats{}, err
	}
	if err := eng.Start(); err != nil {
		return 0, core.NodeStats{}, err
	}
	defer eng.Stop()
	handle, err := eng.Source(src)
	if err != nil {
		return 0, core.NodeStats{}, err
	}

	start := time.Now()
	for i := 0; i < events; i++ {
		// Uniform keys: with k fields the collision probability per pair
		// of in-flight events is ≈ 1/k.
		if _, err := handle.Emit(uint64(i)*2654435761, nil); err != nil {
			return 0, core.NodeStats{}, err
		}
	}
	eng.Drain()
	elapsed := time.Since(start)
	if err := eng.Err(); err != nil {
		return 0, core.NodeStats{}, err
	}
	stats, err := eng.Stats(proc)
	if err != nil {
		return 0, core.NodeStats{}, err
	}
	return elapsed, stats, nil
}
