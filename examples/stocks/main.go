// Stocks reproduces the paper's Figure 1 application end to end: two
// financial publishers feed a stateful Processor (per-symbol statistics),
// whose output is enriched (a costly stateless step), load-balanced by a
// Split with a *logged random decision*, and consumed by two consumers.
//
// Every operator logs its non-deterministic decisions to a simulated
// 10 ms disk. The pipeline runs twice — non-speculatively (the baseline:
// each hop waits for its log) and speculatively (logs overlap) — and
// prints the end-to-end latency of both, demonstrating the paper's
// headline result on its own motivating application.
//
//	go run ./examples/stocks
package main

import (
	"fmt"
	"os"
	"time"

	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/vclock"
)

const (
	symbols   = 8
	trades    = 300
	tradeRate = 400 // events/second per publisher
	diskLat   = 10 * time.Millisecond
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Printf("Fig. 1 application: 2 publishers → processor → enrich → split → 2 consumers\n")
	fmt.Printf("every operator logs decisions to a simulated %v disk\n\n", diskLat)
	nonspec, err := runPipeline(false)
	if err != nil {
		return fmt.Errorf("non-speculative run: %w", err)
	}
	spec, err := runPipeline(true)
	if err != nil {
		return fmt.Errorf("speculative run: %w", err)
	}
	fmt.Printf("\nnon-speculative: mean=%v p99=%v\n", time.Duration(nonspec.Mean()), nonspec.QuantileDuration(0.99))
	fmt.Printf("speculative:     mean=%v p99=%v\n", time.Duration(spec.Mean()), spec.QuantileDuration(0.99))
	fmt.Printf("speculation cuts mean latency by %.1fx\n", nonspec.Mean()/spec.Mean())
	return nil
}

func runPipeline(speculative bool) (*metrics.HDR, error) {
	g := graph.New()
	pub1 := g.AddNode(graph.Node{Name: "nyse"})
	pub2 := g.AddNode(graph.Node{Name: "nasdaq"})
	proc := g.AddNode(graph.Node{
		Name:            "processor",
		Op:              &operator.Classifier{Classes: symbols},
		Traits:          operator.ClassifierTraits(symbols),
		Speculative:     speculative,
		CheckpointEvery: 100,
	})
	enrich := g.AddNode(graph.Node{
		Name: "enrich",
		Op: &operator.Enrich{
			Cost:     200 * time.Microsecond,
			Annotate: func(e event.Event) []byte { return []byte{0xEE} },
		},
		Traits:      operator.EnrichTraits,
		Speculative: speculative,
	})
	split := g.AddNode(graph.Node{
		Name:        "split",
		Op:          &operator.Split{Outputs: 2}, // logged random balancing
		OutputPorts: 2,
		Speculative: speculative,
	})
	g.Connect(pub1, 0, proc, 0)
	g.Connect(pub2, 0, proc, 1)
	g.Connect(proc, 0, enrich, 0)
	g.Connect(enrich, 0, split, 0)

	// One writer pool per operator process, as in the paper's deployment.
	pools := map[graph.NodeID]*storage.Pool{}
	for _, id := range []graph.NodeID{proc, enrich, split} {
		pools[id] = storage.NewPool([]storage.Disk{storage.NewSimDisk(diskLat)})
		defer pools[id].Close()
	}
	shared := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	defer shared.Close()

	wall := vclock.NewWall()
	eng, err := core.New(g, core.Options{Pool: shared, NodePools: pools, Seed: 7, Clock: wall})
	if err != nil {
		return nil, err
	}
	if err := eng.Start(); err != nil {
		return nil, err
	}
	defer eng.Stop()

	hist := metrics.NewHDR()
	consumed := make(chan struct{}, 4*trades)
	consume := func(ev event.Event, final bool) {
		if !final {
			return
		}
		if lat := time.Duration(wall.Now() - ev.Timestamp); lat > 0 {
			hist.Record(lat)
		}
		consumed <- struct{}{}
	}
	if err := eng.Subscribe(split, 0, consume); err != nil {
		return nil, err
	}
	if err := eng.Subscribe(split, 1, consume); err != nil {
		return nil, err
	}

	s1, err := eng.Source(pub1)
	if err != nil {
		return nil, err
	}
	s2, err := eng.Source(pub2)
	if err != nil {
		return nil, err
	}
	period := time.Second / tradeRate
	for i := 0; i < trades; i++ {
		if _, err := s1.Emit(uint64(i)%symbols, operator.EncodeValue(uint64(100+i))); err != nil {
			return nil, err
		}
		if _, err := s2.Emit(uint64(i+3)%symbols, operator.EncodeValue(uint64(200+i))); err != nil {
			return nil, err
		}
		time.Sleep(period)
	}
	for i := 0; i < 2*trades; i++ {
		select {
		case <-consumed:
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("timed out after %d of %d outputs", i, 2*trades)
		}
	}
	eng.Drain()
	if err := eng.Err(); err != nil {
		return nil, err
	}
	mode := "non-speculative"
	if speculative {
		mode = "speculative"
	}
	fmt.Printf("%-16s %d trades consumed, mean latency %v\n", mode, hist.Count(), time.Duration(hist.Mean()))
	return hist, nil
}
