package experiments

import (
	"fmt"
	"time"

	"streammine/internal/storage"
)

// Fig2Config is one logging configuration of Figure 2.
type Fig2Config struct {
	Name string
	// Disks is the number of storage points.
	Disks int
	// WriteLatency is the per-write stable-storage time.
	WriteLatency time.Duration
}

// Fig2Result carries the structured numbers behind the table (tests
// assert on these rather than parsing strings).
type Fig2Result struct {
	Config      Fig2Config
	NonSpec     time.Duration
	Speculative time.Duration
}

// fig2Configs mirrors the paper's five x-axis configurations: one to
// three local hard drives (modelled at 12 ms/write) and the two simulated
// fast disks (10 ms and 5 ms).
func fig2Configs(cfg Config) []Fig2Config {
	hdd := 12 * time.Millisecond
	sim10 := 10 * time.Millisecond
	sim5 := 5 * time.Millisecond
	if cfg.Quick {
		// Stay well above the host's sleep granularity (~1 ms) so the
		// configurations remain distinguishable.
		hdd, sim10, sim5 = 5*time.Millisecond, 4*time.Millisecond, 2*time.Millisecond
	}
	return []Fig2Config{
		{Name: "1 disk", Disks: 1, WriteLatency: hdd},
		{Name: "2 disks", Disks: 2, WriteLatency: hdd},
		{Name: "3 disks", Disks: 3, WriteLatency: hdd},
		{Name: "Sim 10", Disks: 1, WriteLatency: sim10},
		{Name: "Sim 5", Disks: 1, WriteLatency: sim5},
	}
}

// RunFig2 reproduces Figure 2: end-to-end latency of a two-component
// pipeline (each logging one 64-bit decision per event) across logging
// configurations, speculative vs non-speculative. Both components share
// one writer pool, exactly as in the paper ("the two components ... share
// the same logging queues and storage").
func RunFig2(cfg Config) (*Table, []Fig2Result, error) {
	events := 20
	window := time.Millisecond
	if cfg.Quick {
		events = 8
		window = 500 * time.Microsecond
	}
	var results []Fig2Result
	table := &Table{
		ID:     "fig2",
		Title:  "End-to-end latency, 2 components, per logging configuration (ms)",
		Header: []string{"config", "non-spec", "speculative", "gain"},
	}
	for _, c := range fig2Configs(cfg) {
		run := func(spec bool) (time.Duration, error) {
			disks := make([]storage.Disk, c.Disks)
			for i := range disks {
				disks[i] = storage.NewSimDisk(c.WriteLatency)
			}
			pool := storage.NewPoolDelayed(disks, window)
			defer pool.Close()
			return measureChain(chainSpec{ops: 2, speculative: spec, shared: pool}, events)
		}
		nonspec, err := run(false)
		if err != nil {
			return nil, nil, fmt.Errorf("fig2 %s non-spec: %w", c.Name, err)
		}
		spec, err := run(true)
		if err != nil {
			return nil, nil, fmt.Errorf("fig2 %s spec: %w", c.Name, err)
		}
		results = append(results, Fig2Result{Config: c, NonSpec: nonspec, Speculative: spec})
		table.Rows = append(table.Rows, []string{
			c.Name, ms(nonspec), ms(spec),
			fmt.Sprintf("%.2fx", float64(nonspec)/float64(spec)),
		})
	}
	return table, results, nil
}
