package experiments

import (
	"fmt"
	"io"
)

// Runner regenerates one experiment and returns its table(s).
type Runner struct {
	ID   string
	Desc string
	Run  func(cfg Config) ([]*Table, error)
}

// Runners lists every experiment in paper order.
func Runners() []Runner {
	return []Runner{
		{ID: "2", Desc: "Fig 2: latency per logging configuration", Run: func(cfg Config) ([]*Table, error) {
			t, _, err := RunFig2(cfg)
			return []*Table{t}, err
		}},
		{ID: "3", Desc: "Fig 3: latency vs number of operators", Run: func(cfg Config) ([]*Table, error) {
			t, _, err := RunFig3(cfg)
			return []*Table{t}, err
		}},
		{ID: "4", Desc: "Fig 4: latency evolution under a burst", Run: func(cfg Config) ([]*Table, error) {
			t, _, err := RunFig4(cfg)
			return []*Table{t}, err
		}},
		{ID: "5", Desc: "Fig 5: speed-up and abort rate vs state size", Run: func(cfg Config) ([]*Table, error) {
			t, _, err := RunFig5(cfg)
			return []*Table{t}, err
		}},
		{ID: "6", Desc: "Fig 6+7: latency and throughput vs input rate", Run: func(cfg Config) ([]*Table, error) {
			lat, thr, _, err := RunFig6(cfg)
			return []*Table{lat, thr}, err
		}},
		{ID: "8", Desc: "Fig 8: STM access overhead and rollback cost", Run: func(cfg Config) ([]*Table, error) {
			t, _, err := RunFig8(cfg)
			return []*Table{t}, err
		}},
		{ID: "external", Desc: "§4 closing scenario: speculative externalization", Run: func(cfg Config) ([]*Table, error) {
			t, _, err := RunExternalization(cfg)
			return []*Table{t}, err
		}},
		{ID: "recovery", Desc: "§2.2 precise recovery under a crash", Run: func(cfg Config) ([]*Table, error) {
			t, _, err := RunRecovery(cfg)
			return []*Table{t}, err
		}},
		{ID: "related", Desc: "§5 related-work latency models", Run: func(cfg Config) ([]*Table, error) {
			t, err := RunRelatedWork(cfg)
			return []*Table{t}, err
		}},
	}
}

// RunAll executes every experiment, writing tables to w as they finish.
func RunAll(cfg Config, w io.Writer) error {
	for _, r := range Runners() {
		fmt.Fprintf(w, "--- running %s (%s) ---\n", r.ID, r.Desc)
		tables, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", r.ID, err)
		}
		for _, t := range tables {
			fmt.Fprintln(w, t.String())
		}
	}
	return nil
}
