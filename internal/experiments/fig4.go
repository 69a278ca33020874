package experiments

import (
	"fmt"
	"math"
	"time"

	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/operator"
	"streammine/internal/storage"
)

// Fig4Result is one configuration's latency evolution.
type Fig4Result struct {
	Mode string
	// Buckets holds the mean end-to-end latency per time slice (NaN for
	// empty slices).
	Buckets []float64
	// BucketWidth is the slice duration.
	BucketWidth time.Duration
	// DataHighWater and DataCap are the processor's peak data-lane
	// occupancy and configured bound (zero when flow control is off).
	DataHighWater int
	DataCap       int
}

// RunFig4 reproduces Figure 4: the evolution of end-to-end latency when
// the event inter-arrival time drops below the sequential processing time
// during the middle of the run. Sequential execution builds a backlog it
// cannot drain; enabling optimistic parallelization (2 worker threads)
// keeps latency flat. Time is scaled: the paper's 50 s run shrinks to a
// few seconds (EXPERIMENTS.md records the scale).
func RunFig4(cfg Config) (*Table, []Fig4Result, error) {
	cost := 2 * time.Millisecond
	total := 6 * time.Second
	if cfg.Quick {
		total = 2 * time.Second
	}
	// Burst occupies [30%, 50%) of the run. Pacing always sleeps the
	// normal period but emits two events per tick during the burst:
	// offered load becomes ≈1.4× the sequential capacity *independent of
	// how much the scheduler stretches the sleeps* (service and pacing
	// stretch together), where the paper's 10% overload on a shorter,
	// scaled-down run would drown in scheduling noise.
	normalPeriod := cost * 14 / 10
	burstStart := total * 3 / 10
	burstEnd := total / 2
	bucket := total / 25

	// The third mode repeats the 2-thread burst with flow control: the
	// processor's data lane is bounded (credits hold the excess at the
	// source edge), so peak occupancy stays ≤ the cap while the burst
	// exceeds sustained capacity. With shedding off, no event is dropped.
	modes := []struct {
		name    string
		workers int
		fl      *flow.Limits
	}{
		{"sequential (1 thread)", 1, nil},
		{"speculative 2 threads", 2, nil},
		{"speculative 2 threads, bounded", 2, &flow.Limits{MailboxCap: 32}},
	}

	table := &Table{
		ID:     "fig4",
		Title:  "Latency evolution under a burst (ms per time slice)",
		Header: []string{"slice"},
	}
	var results []Fig4Result
	for _, mode := range modes {
		table.Header = append(table.Header, mode.name)
		res, err := runFig4Mode(mode.workers, mode.fl, cost, total, normalPeriod, burstStart, burstEnd, bucket)
		if err != nil {
			return nil, nil, fmt.Errorf("fig4 %s: %w", mode.name, err)
		}
		res.Mode = mode.name
		results = append(results, res)
	}

	rows := 0
	for _, r := range results {
		if len(r.Buckets) > rows {
			rows = len(r.Buckets)
		}
	}
	for i := 0; i < rows; i++ {
		row := []string{fmt.Sprintf("%.1fs", (time.Duration(i) * bucket).Seconds())}
		for _, r := range results {
			if i < len(r.Buckets) && !math.IsNaN(r.Buckets[i]) {
				row = append(row, fmt.Sprintf("%.2f", r.Buckets[i]))
			} else {
				row = append(row, "-")
			}
		}
		table.Rows = append(table.Rows, row)
	}
	return table, results, nil
}

func runFig4Mode(workers int, fl *flow.Limits, cost, total, normalPeriod, burstStart, burstEnd, bucket time.Duration) (Fig4Result, error) {
	const classes = 512 // plenty of parallelism in the workload
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	proc := g.AddNode(graph.Node{
		Name:        "proc",
		Op:          &costlyClassifier{classes: classes, cost: cost},
		Traits:      operator.Traits{Stateful: true, Deterministic: true, StateWords: classes},
		Speculative: true,
		Workers:     workers,
		Flow:        fl,
	})
	g.Connect(src, 0, proc, 0)

	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	defer pool.Close()
	eng, err := core.New(g, core.Options{Pool: pool, Seed: 99})
	if err != nil {
		return Fig4Result{}, err
	}
	if err := eng.Start(); err != nil {
		return Fig4Result{}, err
	}
	defer eng.Stop()

	series := metrics.NewTimeSeries()
	sink := newLatencySink()
	if err := eng.Subscribe(proc, 0, func(ev event.Event, final bool) {
		if !final {
			return
		}
		sent := time.Duration(operator.DecodeValue(ev.Payload))
		lat := time.Since(sink.anchor) - sent
		series.Add(float64(lat.Microseconds()) / 1000)
	}); err != nil {
		return Fig4Result{}, err
	}
	handle, err := eng.Source(src)
	if err != nil {
		return Fig4Result{}, err
	}

	start := time.Now()
	key := uint64(0)
	for {
		elapsed := time.Since(start)
		if elapsed >= total {
			break
		}
		batch := 1
		if elapsed >= burstStart && elapsed < burstEnd {
			batch = 2 // ≈1.4× sequential capacity
		}
		for i := 0; i < batch; i++ {
			if _, err := handle.Emit(key, sink.stamp()); err != nil {
				return Fig4Result{}, err
			}
			key++
		}
		time.Sleep(normalPeriod)
	}
	eng.Drain()
	if err := eng.Err(); err != nil {
		return Fig4Result{}, err
	}
	res := Fig4Result{Buckets: series.Buckets(bucket), BucketWidth: bucket}
	for _, p := range eng.Pressure() {
		if p.Node == "proc" {
			res.DataHighWater, res.DataCap = p.DataHighWater, p.DataCap
		}
	}
	return res, nil
}
