package ingest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/metrics"
)

// countEmitter discards emitted batches, isolating the benchmark to the
// gateway's own edge pipeline (dedup, quotas, admission log, framing).
type countEmitter struct{ n atomic.Uint64 }

func (c *countEmitter) EmitBatch(items []core.BatchItem) ([]event.Event, error) {
	c.n.Add(uint64(len(items)))
	return nil, nil
}

// BenchmarkIngestThroughput measures the gateway edge under concurrent
// producers offering more than the tenant's rate quota, so every
// iteration exercises both the admit path and the shed path. One
// iteration is a fixed workload (3 clients × 2000 records), which keeps
// the shed and p99 columns meaningful under `-benchtime 1x` smoke runs.
// Reported columns: events/sec, ingest-admit-p99-ms and ingest-shed-pct.
func BenchmarkIngestThroughput(b *testing.B) {
	const clients, perClient, batch = 3, 2000, 64
	var lastP99 time.Duration
	var lastShedPct float64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		reg := metrics.NewRegistry()
		// One tenant per client: concurrent producers sharing a tenant
		// would interleave in one sequence space and dedup each other.
		tenants := make([]TenantConfig, clients)
		for ci := range tenants {
			tenants[ci] = TenantConfig{Name: fmt.Sprintf("bench-%d", ci), Token: fmt.Sprintf("tok-%d", ci), Rate: 20000, Burst: 256}
		}
		s, err := Start(Config{Addr: "127.0.0.1:0", Tenants: tenants, Registry: reg})
		if err != nil {
			b.Fatal(err)
		}
		em := &countEmitter{}
		if err := s.RegisterSource("src", em, nil); err != nil {
			b.Fatal(err)
		}
		errc := make(chan error, clients)
		var wg sync.WaitGroup
		for ci := 0; ci < clients; ci++ {
			wg.Add(1)
			go func(ci int) {
				defer wg.Done()
				c := NewClient(s.Addr(), "src", ClientOptions{Token: fmt.Sprintf("tok-%d", ci), Backoff: time.Millisecond})
				defer c.Close()
				payload := make([]byte, 64)
				recs := make([]Record, batch)
				for sent := 0; sent < perClient; sent += batch {
					n := perClient - sent
					if n > batch {
						n = batch
					}
					for j := 0; j < n; j++ {
						recs[j] = Record{Key: uint64(ci)<<32 | uint64(sent+j), Payload: payload}
					}
					if err := c.Send(recs[:n]); err != nil {
						errc <- err
						return
					}
				}
			}(ci)
		}
		wg.Wait()
		select {
		case err := <-errc:
			b.Fatal(err)
		default:
		}
		st := s.Stats()
		if st.Acked != clients*perClient {
			b.Fatalf("acked %d records, want %d", st.Acked, clients*perClient)
		}
		if got := em.n.Load(); got != clients*perClient {
			b.Fatalf("emitted %d records, want %d", got, clients*perClient)
		}
		lastP99 = s.AdmitLatency().QuantileDuration(0.99)
		if st.Accepted > 0 {
			lastShedPct = float64(st.Shed) / float64(st.Accepted) * 100
		}
		_ = s.Close()
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(b.N*clients*perClient)/elapsed.Seconds(), "events/sec")
	b.ReportMetric(float64(lastP99)/float64(time.Millisecond), "ingest-admit-p99-ms")
	b.ReportMetric(lastShedPct, "ingest-shed-pct")
}
