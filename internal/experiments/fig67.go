package experiments

import (
	"fmt"
	"sync"
	"time"

	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
)

// Fig67Mode is one engine configuration of Figures 6 and 7.
type Fig67Mode struct {
	Name        string
	Speculative bool
	Workers     int
}

// fig67Modes mirrors the paper's four curves.
func fig67Modes() []Fig67Mode {
	return []Fig67Mode{
		{Name: "non-spec", Speculative: false, Workers: 1},
		{Name: "spec 1 thread", Speculative: true, Workers: 1},
		{Name: "spec 2 threads", Speculative: true, Workers: 2},
		{Name: "spec 6 threads", Speculative: true, Workers: 6},
	}
}

// Fig67Point is one (mode, rate) measurement.
type Fig67Point struct {
	Mode       string
	BothLog    bool
	InputRate  int // offered events/second (both sources combined)
	MeanLat    time.Duration
	OutputRate float64 // finalized events/second during the window
}

// fig67Scale holds the parameters of a Figs. 6/7 run: the offered rates
// and, for every point, the publishing window, the sketch's simulated
// cost per event and the log write latency.
type fig67Scale struct {
	rates   []int
	window  time.Duration
	cost    time.Duration
	diskLat time.Duration
}

func fig67ScaleFor(cfg Config) fig67Scale {
	if cfg.Quick {
		// The 400 µs simulated cost sleeps for ≈1.1 ms on a coarse-timer
		// host, so single-thread capacity is ≈900 ev/s: 400 ev/s sits
		// safely below saturation, 6000 ev/s safely above.
		return fig67Scale{
			rates:   []int{400, 6000},
			window:  500 * time.Millisecond,
			cost:    400 * time.Microsecond,
			diskLat: 4 * time.Millisecond,
		}
	}
	return fig67Scale{
		rates:   []int{1000, 2000, 3000, 5000, 10000, 20000},
		window:  1200 * time.Millisecond,
		cost:    400 * time.Microsecond,
		diskLat: 5 * time.Millisecond,
	}
}

// RunFig6 reproduces Figure 6 (latency vs input rate; (a) only the union
// logs, (b) both operators log) and Figure 7 (the throughput response)
// from the same runs.
//
// The application is the paper's: two publishers → union (cheap, order-
// sensitive, logged) → count sketch (computationally expensive,
// optimistically parallelized).
func RunFig6(cfg Config) (*Table, *Table, []Fig67Point, error) {
	sc := fig67ScaleFor(cfg)

	latTable := &Table{
		ID:     "fig6",
		Title:  "Latency response vs input rate (ms); (a) union logs / (b) both log",
		Header: []string{"logging", "rate ev/s"},
	}
	thrTable := &Table{
		ID:     "fig7",
		Title:  "Throughput response vs input rate (finalized ev/s)",
		Header: []string{"logging", "rate ev/s"},
	}
	modes := fig67Modes()
	for _, m := range modes {
		latTable.Header = append(latTable.Header, m.Name)
		thrTable.Header = append(thrTable.Header, m.Name)
	}

	var points []Fig67Point
	for _, bothLog := range []bool{false, true} {
		logName := "(a) union"
		if bothLog {
			logName = "(b) both"
		}
		for _, rate := range sc.rates {
			latRow := []string{logName, fmt.Sprintf("%d", rate)}
			thrRow := []string{logName, fmt.Sprintf("%d", rate)}
			for _, m := range modes {
				p, err := runFig67Point(m, bothLog, rate, sc)
				if err != nil {
					return nil, nil, nil, fmt.Errorf("fig6/7 %s rate=%d: %w", m.Name, rate, err)
				}
				points = append(points, p)
				latRow = append(latRow, ms(p.MeanLat))
				thrRow = append(thrRow, fmt.Sprintf("%.0f", p.OutputRate))
			}
			latTable.Rows = append(latTable.Rows, latRow)
			thrTable.Rows = append(thrTable.Rows, thrRow)
		}
	}
	return latTable, thrTable, points, nil
}

// runFig67Point measures one mode at one offered rate, publishing for
// sc.window.
func runFig67Point(mode Fig67Mode, bothLog bool, rate int, sc fig67Scale) (Fig67Point, error) {
	window := sc.window
	const sketchDepth, sketchWidth = 4, 1024
	g := graph.New()
	p1 := g.AddNode(graph.Node{Name: "p1"})
	p2 := g.AddNode(graph.Node{Name: "p2"})
	union := g.AddNode(graph.Node{
		Name: "union",
		Op:   &operator.Union{},
		// Stateful marks the input interleaving as a logged decision.
		Traits:      operator.Traits{Stateful: true, OrderSensitive: true},
		Speculative: mode.Speculative,
	})
	sketchTraits := operator.Traits{StateWords: sketchDepth * sketchWidth}
	if bothLog {
		sketchTraits.Stateful = true
	}
	sk := g.AddNode(graph.Node{
		Name:        "sketch",
		Op:          &stampedSketch{depth: sketchDepth, width: sketchWidth, seed: 7, cost: sc.cost},
		Traits:      sketchTraits,
		Speculative: mode.Speculative,
		Workers:     mode.Workers,
	})
	g.Connect(p1, 0, union, 0)
	g.Connect(p2, 0, union, 1)
	g.Connect(union, 0, sk, 0)

	pool := storage.NewPoolDelayed([]storage.Disk{storage.NewSimDisk(sc.diskLat)}, sc.diskLat/10)
	defer pool.Close()
	eng, err := core.New(g, core.Options{Pool: pool, Seed: 5})
	if err != nil {
		return Fig67Point{}, err
	}
	if err := eng.Start(); err != nil {
		return Fig67Point{}, err
	}
	defer eng.Stop()

	anchor := time.Now()
	var mu sync.Mutex
	var totalLat time.Duration
	var finals int
	if err := eng.Subscribe(sk, 0, func(ev event.Event, final bool) {
		if !final {
			return
		}
		sent := time.Duration(operator.DecodeValue(ev.Payload))
		lat := time.Since(anchor) - sent
		mu.Lock()
		totalLat += lat
		finals++
		mu.Unlock()
	}); err != nil {
		return Fig67Point{}, err
	}

	s1, err := eng.Source(p1)
	if err != nil {
		return Fig67Point{}, err
	}
	s2, err := eng.Source(p2)
	if err != nil {
		return Fig67Point{}, err
	}

	// Two paced publishers, each at rate/2. Pacing is deficit-based with
	// millisecond sleeps: spinning would monopolize small hosts (this
	// reproduction must run on a single core), and sleeps shorter than the
	// scheduler granularity cannot pace 30k ev/s individually.
	halfRate := rate / 2
	var wg sync.WaitGroup
	publish := func(s *core.SourceHandle, seed uint64) {
		defer wg.Done()
		start := time.Now()
		emitted := 0
		for {
			elapsed := time.Since(start)
			if elapsed >= window {
				return
			}
			due := int(elapsed.Seconds()*float64(halfRate)) + 1
			for emitted < due {
				payload := operator.EncodeValue(uint64(time.Since(anchor).Nanoseconds()))
				if _, err := s.Emit(seed+uint64(emitted), payload); err != nil {
					return
				}
				emitted++
			}
			time.Sleep(500 * time.Microsecond)
		}
	}
	wg.Add(2)
	go publish(s1, 1)
	go publish(s2, 1<<40)
	wg.Wait()
	// Grace period: let in-flight events finalize, but do not fully drain
	// a saturated backlog (the paper measures steady-state response).
	time.Sleep(window / 2)
	eng.Stop()
	if err := eng.Err(); err != nil {
		return Fig67Point{}, err
	}

	mu.Lock()
	defer mu.Unlock()
	p := Fig67Point{Mode: mode.Name, BothLog: bothLog, InputRate: rate}
	if finals > 0 {
		p.MeanLat = totalLat / time.Duration(finals)
	}
	p.OutputRate = float64(finals) / (window + window/2).Seconds()
	return p, nil
}
