package main

import (
	"fmt"
	"sync"
	"time"

	"streammine/internal/core"
	"streammine/internal/cq"
	"streammine/internal/detrand"
	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/operator"
	"streammine/internal/profiler"
	"streammine/internal/storage"
)

// runQuery compiles a continuous query, drives each FROM stream with a
// synthetic paced source (random keys over a small space, sequential
// values), and prints the query's finalized outputs as they arrive.
func runQuery(text string, rate, count int, profileSpec bool, obs *observability) error {
	q, err := cq.Parse(text)
	if err != nil {
		return err
	}
	fmt.Printf("query: %s\n", q)

	g := graph.New()
	sources := make(map[string]graph.NodeID, len(q.Sources))
	for _, name := range q.Sources {
		sources[name] = g.AddNode(graph.Node{Name: name})
	}
	att, err := cq.Attach(g, q, sources, cq.Options{Speculative: true, Workers: 2})
	if err != nil {
		return err
	}

	pool := storage.NewPool([]storage.Disk{storage.NewMemDisk()})
	defer pool.Close()
	var prof *profiler.Profiler
	if profileSpec {
		prof = profiler.New(profiler.Config{})
	}
	eng, err := core.New(g, core.Options{
		Pool: pool, Seed: 1,
		Metrics: obs.registry, Tracer: obs.tracer,
		Profiler: prof,
	})
	if err != nil {
		return err
	}
	if err := obs.serve(eng.Err); err != nil {
		return err
	}
	if obs.server != nil {
		obs.server.Register(speculationSections(prof != nil, eng.Waste)...)
	}
	if err := eng.Start(); err != nil {
		return err
	}
	defer eng.Stop()

	var mu sync.Mutex
	results := 0
	var lastPayload uint64
	if err := eng.Subscribe(att.Output, 0, func(ev event.Event, final bool) {
		if !final {
			return
		}
		mu.Lock()
		results++
		lastPayload = operator.DecodeValue(ev.Payload)
		n := results
		mu.Unlock()
		if tr := obs.tracer; tr != nil {
			tr.Record("query-sink", ev.ID.String(), metrics.PhaseExternalize, "")
		}
		if n <= 10 || n%1000 == 0 {
			fmt.Printf("result %6d: key=%d value=%d ts=%d\n", n, ev.Key, operator.DecodeValue(ev.Payload), ev.Timestamp)
		}
	}); err != nil {
		return err
	}

	var wg sync.WaitGroup
	for name, id := range sources {
		handle, err := eng.Source(id)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(name string, handle *core.SourceHandle) {
			defer wg.Done()
			rng := detrand.New(uint64(len(name)) * 7777)
			start := time.Now()
			emitted := 0
			for emitted < count {
				due := int(time.Since(start).Seconds()*float64(rate)) + 1
				if due > count {
					due = count
				}
				for emitted < due {
					key := uint64(rng.Intn(64))
					if _, err := handle.Emit(key, operator.EncodeValue(uint64(emitted))); err != nil {
						return
					}
					emitted++
				}
				time.Sleep(time.Millisecond)
			}
		}(name, handle)
	}
	wg.Wait()
	eng.Drain()
	if err := eng.Err(); err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("done: %d results (last value %d)\n", results, lastPayload)
	return nil
}
