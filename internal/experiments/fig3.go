package experiments

import (
	"fmt"
	"time"

	"streammine/internal/storage"
)

// Fig3Result is one (operators, logging time) point of Figure 3.
type Fig3Result struct {
	Operators   int
	LogLatency  time.Duration
	NonSpec     time.Duration
	Speculative time.Duration
}

// RunFig3 reproduces Figure 3: end-to-end latency versus pipeline length
// (2–7 logging operators) for 10 ms and 5 ms logging, speculative vs
// non-speculative. Every operator owns its storage (the paper runs each as
// its own process), so speculative latency stays flat while the
// non-speculative one grows linearly.
func RunFig3(cfg Config) (*Table, []Fig3Result, error) {
	lats := []time.Duration{10 * time.Millisecond, 5 * time.Millisecond}
	counts := []int{2, 3, 4, 5, 6, 7}
	events := 15
	if cfg.Quick {
		lats = []time.Duration{4 * time.Millisecond, 2 * time.Millisecond}
		counts = []int{2, 4, 7}
		events = 6
	}
	table := &Table{
		ID:     "fig3",
		Title:  "End-to-end latency vs number of operators (ms)",
		Header: []string{"operators", "log", "non-spec", "speculative"},
	}
	var results []Fig3Result
	for _, d := range lats {
		for _, n := range counts {
			run := func(spec bool) (time.Duration, error) {
				return measureChain(chainSpec{
					ops:         n,
					speculative: spec,
					perNodePool: func() *storage.Pool {
						return storage.NewPool([]storage.Disk{storage.NewSimDisk(d)})
					},
				}, events)
			}
			nonspec, err := run(false)
			if err != nil {
				return nil, nil, fmt.Errorf("fig3 n=%d d=%v non-spec: %w", n, d, err)
			}
			spec, err := run(true)
			if err != nil {
				return nil, nil, fmt.Errorf("fig3 n=%d d=%v spec: %w", n, d, err)
			}
			results = append(results, Fig3Result{Operators: n, LogLatency: d, NonSpec: nonspec, Speculative: spec})
			table.Rows = append(table.Rows, []string{
				fmt.Sprintf("%d", n), ms(d), ms(nonspec), ms(spec),
			})
		}
	}
	return table, results, nil
}
