package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/vclock"
)

// BenchmarkLatencyDepth reproduces the paper's central experiment:
// end-to-end latency as a function of pipeline depth, with and without
// speculation. Every stage is a stateful operator whose commit requires a
// decision-log sync on a simulated disk, so a non-speculative stage holds
// its output until the sync completes and latency grows linearly with
// depth (depth × sync), while a speculative stage forwards optimistically
// and overlaps all the syncs — latency stays sub-linear in depth.
//
// The closed loop (one event in flight, next emitted after finality)
// measures pure pipeline latency with no queueing. Reported as p50-us /
// p99-us.
func BenchmarkLatencyDepth(b *testing.B) {
	for _, spec := range []bool{true, false} {
		mode := "spec"
		if !spec {
			mode = "nospec"
		}
		for _, depth := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/depth=%d", mode, depth), func(b *testing.B) {
				benchLatencyDepth(b, depth, spec)
			})
		}
	}
	// Open-loop throughput with hot-path batching (docs/PERFORMANCE.md):
	// batch=1 is the unbatched baseline; larger sizes amortize admission,
	// credit, injection and commit costs over runs of events. Reported as
	// events/sec plus the finalized end-to-end p99, the batching speedup
	// and its latency cost side by side.
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("throughput/batch=%d", batch), func(b *testing.B) {
			benchThroughputBatch(b, batch)
		})
	}
}

// benchThroughputBatch pushes b.N events (at least benchMinEvents, so a
// 1x smoke run still measures sustained rate rather than a single event)
// through a two-stage speculative pipeline as fast as the flow control
// admits them, in emit runs of the configured batch size, and measures
// sustained finalized throughput.
const benchMinEvents = 20000

func benchThroughputBatch(b *testing.B, batch int) {
	fl := &flow.Limits{MailboxCap: 2048, CreditWindow: 512, BatchSize: batch}
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src", Flow: fl})
	s1 := g.AddNode(graph.Node{
		Name:        "stage0",
		Op:          &operator.Classifier{Classes: 4},
		Traits:      operator.ClassifierTraits(4),
		Speculative: true,
		Flow:        fl,
	})
	s2 := g.AddNode(graph.Node{
		Name:        "stage1",
		Op:          &operator.Classifier{Classes: 4},
		Traits:      operator.ClassifierTraits(4),
		Speculative: true,
		Flow:        fl,
	})
	g.Connect(src, 0, s1, 0)
	g.Connect(s1, 0, s2, 0)
	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	defer pool.Close()
	wall := vclock.NewWall()
	eng, err := New(g, Options{Seed: 11, Pool: pool, Clock: wall})
	if err != nil {
		b.Fatal(err)
	}
	lat := metrics.NewHDR()
	var latMu sync.Mutex
	if err := eng.Subscribe(s2, 0, func(ev event.Event, fin bool) {
		if !fin {
			return
		}
		// Timestamps come from the engine clock, so latency is measured
		// against the same clock the source stamped with.
		if d := wall.Now() - ev.Timestamp; d > 0 {
			latMu.Lock()
			lat.Observe(d)
			latMu.Unlock()
		}
	}); err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	defer eng.Stop()
	s, err := eng.Source(src)
	if err != nil {
		b.Fatal(err)
	}
	payload := operator.EncodeValue(7)
	items := make([]BatchItem, 0, batch)
	events := b.N
	if events < benchMinEvents {
		events = benchMinEvents
	}
	b.ResetTimer()
	for emitted := 0; emitted < events; {
		if batch > 1 {
			n := batch
			if left := events - emitted; n > left {
				n = left
			}
			items = items[:0]
			for i := 0; i < n; i++ {
				items = append(items, BatchItem{Key: uint64(emitted + i), Payload: payload})
			}
			if _, err := s.EmitBatch(items); err != nil {
				b.Fatal(err)
			}
			emitted += n
			continue
		}
		if _, err := s.Emit(uint64(emitted), payload); err != nil {
			b.Fatal(err)
		}
		emitted++
	}
	drainOrDump(b, eng, time.Minute)
	elapsed := b.Elapsed()
	b.StopTimer()
	if err := eng.Err(); err != nil {
		b.Fatal(err)
	}
	if elapsed > 0 {
		b.ReportMetric(float64(events)/elapsed.Seconds(), "events/sec")
	}
	b.ReportMetric(float64(lat.Quantile(0.99))/1e3, "p99-us")
}

func benchLatencyDepth(b *testing.B, depth int, spec bool) {
	// No simulated exec cost: SimulateWork sleeps, and sub-millisecond
	// sleeps round up to ~1ms of kernel timer slack that would swamp the
	// sync latency under study. The stage work is the real classifier
	// exec; the per-stage hold is the decision-log sync alone.
	const (
		events  = 20
		syncLat = 200 * time.Microsecond
	)
	lat := metrics.NewHDR()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := graph.New()
		src := g.AddNode(graph.Node{Name: "src"})
		prev := src
		for d := 0; d < depth; d++ {
			n := g.AddNode(graph.Node{
				Name:        fmt.Sprintf("stage%d", d),
				Op:          &operator.Classifier{Classes: 4},
				Traits:      operator.ClassifierTraits(4),
				Speculative: spec,
			})
			g.Connect(prev, 0, n, 0)
			prev = n
		}
		pool := storage.NewPool([]storage.Disk{storage.NewSimDisk(syncLat, 0)})
		eng, err := New(g, Options{Seed: 11, Pool: pool})
		if err != nil {
			b.Fatal(err)
		}
		var (
			mu      sync.Mutex
			started time.Time
			seen    bool
		)
		first := make(chan time.Duration, 1)
		final := make(chan struct{}, 1)
		if err := eng.Subscribe(prev, 0, func(ev event.Event, fin bool) {
			mu.Lock()
			f := !seen
			seen = true
			el := time.Since(started)
			mu.Unlock()
			if f {
				first <- el
			}
			if fin {
				final <- struct{}{}
			}
		}); err != nil {
			b.Fatal(err)
		}
		if err := eng.Start(); err != nil {
			b.Fatal(err)
		}
		s, err := eng.Source(src)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for k := 0; k < events; k++ {
			mu.Lock()
			seen = false
			started = time.Now()
			mu.Unlock()
			if _, err := s.Emit(uint64(k), operator.EncodeValue(uint64(k))); err != nil {
				b.Fatal(err)
			}
			// Latency to first availability at the sink: with speculation
			// that is the optimistic delivery, without it the final one.
			lat.Record(<-first)
			<-final
		}
		b.StopTimer()
		eng.Stop()
		pool.Close()
	}
	b.ReportMetric(float64(lat.QuantileDuration(0.5))/1e3, "p50-us")
	b.ReportMetric(float64(lat.QuantileDuration(0.99))/1e3, "p99-us")
}
