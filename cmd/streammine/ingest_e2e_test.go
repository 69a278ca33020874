package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"streammine/internal/ingest"
	"streammine/internal/operator"
	"streammine/internal/procharness"
)

// ingestE2ETopo feeds the pipeline from the network instead of a paced
// synthetic source: "src" is gateway-fed, pinned to one worker, with the
// stateful classify stage and the sink on the other. Killing the
// ingest-hosting worker forces the full edge failover: the coordinator
// reassigns the source partition to the survivor, whose gateway replays
// the admission log from the shared state directory (re-deriving the
// crashed incarnation's event identities), rebuilds the per-tenant
// sequence floors, and only then accepts the clients' resends.
const ingestE2ETopo = `{
  "speculative": true,
  "seed": 7,
  "nodes": [
    {"name": "src",      "type": "source", "ingest": true},
    {"name": "classify", "type": "classifier", "classes": 4, "inputs": ["src"], "checkpointEvery": 32},
    {"name": "out",      "type": "sink", "inputs": ["classify"]}
  ],
  "placement": {
    "workers": 2,
    "assign": {"src": 0, "classify": 1, "out": 1}
  }
}`

// Three tenants, one per concurrent client, each with its own contiguous
// sequence space. No rate quotas: the chaos drill is about durability,
// not shedding (internal/ingest's own tests cover the quota paths).
const ingestE2ETenants = `[
  {"name": "t0", "token": "tok-0"},
  {"name": "t1", "token": "tok-1"},
  {"name": "t2", "token": "tok-2"}
]`

const (
	ingestE2EClients   = 3
	ingestE2EPerClient = 600
	ingestE2EBatch     = 30
	ingestE2ETotal     = ingestE2EClients * ingestE2EPerClient
)

// runIngestClient delivers one tenant's full journal through whatever
// gateway currently hosts the stream. After a gateway death it reconnects
// and resends the journal from sequence 1 — the at-least-once producer
// protocol — and relies on the rebuilt floors to absorb the acknowledged
// prefix as duplicates. Returns the duplicate count the servers reported.
func runIngestClient(t *testing.T, gws *procharness.Gateways, idx int, deadline time.Time) (uint64, error) {
	t.Helper()
	journal := make([]ingest.Record, ingestE2EPerClient)
	for j := range journal {
		key := uint64(idx)<<32 | uint64(j)
		journal[j] = ingest.Record{Key: key, Payload: operator.EncodeValue(key)}
	}
	token := fmt.Sprintf("tok-%d", idx)
	var dups uint64
	for time.Now().Before(deadline) {
		reg, _ := gws.Get("src")
		c := ingest.NewClient(reg.Addr, "src", ingest.ClientOptions{
			Token:      token,
			Backoff:    10 * time.Millisecond,
			MaxElapsed: 4 * time.Second,
		})
		err := func() error {
			for off := 0; off < len(journal); off += ingestE2EBatch {
				end := off + ingestE2EBatch
				if end > len(journal) {
					end = len(journal)
				}
				if err := c.Send(journal[off:end]); err != nil {
					return err
				}
				// Pace the offered load so the SIGKILL below lands while
				// every client still has records in flight.
				time.Sleep(15 * time.Millisecond)
			}
			return nil
		}()
		dups = c.Dups()
		c.Close()
		if err == nil {
			return dups, nil
		}
		t.Logf("client %d: %v; waiting for the stream to re-register", idx, err)
		waitUntil := time.Now().Add(5 * time.Second)
		for time.Now().Before(waitUntil) {
			if cur, _ := gws.Get("src"); cur.Gen != reg.Gen {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return dups, fmt.Errorf("client %d: journal not delivered before deadline", idx)
}

// runIngestCluster spawns a coordinator and two gateway-running workers
// via procharness, drives the topology with concurrent network clients,
// and (with chaos set) SIGKILLs the worker hosting the ingest stream
// mid-stream. Returns the externalized identity set, the count of
// double-printed sink events, and the total duplicates the gateways
// reported to the clients.
func runIngestCluster(t *testing.T, bin string, chaos bool) (map[string]bool, int, uint64) {
	t.Helper()
	dir := t.TempDir()
	tenantsPath := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(tenantsPath, []byte(ingestE2ETenants), 0o644); err != nil {
		t.Fatal(err)
	}

	cl, err := procharness.Start(procharness.Options{
		Bin:        bin,
		Topology:   ingestE2ETopo,
		Dir:        dir,
		Workers:    2,
		WorkerArgs: []string{"-ingest-addr", "127.0.0.1:0", "-ingest-tenants", tenantsPath},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if _, err := cl.Gateways.Wait("src", 15*time.Second); err != nil {
		t.Fatal(err)
	}

	clientDeadline := time.Now().Add(90 * time.Second)
	var clientDups atomic.Uint64
	clientErrs := make(chan error, ingestE2EClients)
	for i := 0; i < ingestE2EClients; i++ {
		go func(i int) {
			dups, err := runIngestClient(t, cl.Gateways, i, clientDeadline)
			clientDups.Add(dups)
			clientErrs <- err
		}(i)
	}

	if chaos {
		if err := cl.Sinks.WaitDistinct(ingestE2ETotal/10, 30*time.Second); err != nil {
			t.Fatalf("sink output never reached the chaos threshold: %v", err)
		}
		reg, _ := cl.Gateways.Get("src")
		t.Logf("SIGKILL %s (gateway %s) after %d sink events", reg.Worker, reg.Addr, cl.Sinks.Distinct())
		if err := cl.KillWorker(reg.Worker); err != nil {
			t.Fatalf("kill %s: %v", reg.Worker, err)
		}
	}

	for i := 0; i < ingestE2EClients; i++ {
		if err := <-clientErrs; err != nil {
			t.Fatal(err)
		}
	}

	// Ingest-fed partitions are open-ended (producers may reconnect), so
	// the coordinator never reports the run complete; wait for the sinks
	// to drain the acknowledged records instead.
	if err := cl.Sinks.WaitDistinct(ingestE2ETotal, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	// Settle briefly so a late duplicate print (replay leaking past
	// suppression) would be caught rather than raced past.
	time.Sleep(500 * time.Millisecond)
	ids, dupPrints := cl.Sinks.Snapshot()
	return ids, dupPrints, clientDups.Load()
}

// TestClusterIngestFailover is the network-fed chaos drill the ingest
// gateway exists for: three concurrent clients (one tenant each) stream
// through the gateway while the worker hosting it is SIGKILLed
// mid-stream. The coordinator reassigns the source partition to the
// surviving worker, whose gateway replays the shared admission log —
// re-deriving the dead incarnation's event identities so downstream
// duplicate suppression holds — and rebuilds tenant floors so the
// clients' from-the-top resends dedup instead of duplicating. Every
// acknowledged record must survive: the externalized identity set equals
// the failure-free run's, with no sink event printed twice.
func TestClusterIngestFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e: builds a binary and runs multi-second failure detection")
	}
	bin := buildBinary(t)

	baseline, dupPrints, _ := runIngestCluster(t, bin, false)
	if len(baseline) != ingestE2ETotal {
		t.Fatalf("baseline externalized %d distinct events, want %d", len(baseline), ingestE2ETotal)
	}
	if dupPrints != 0 {
		t.Fatalf("baseline printed %d duplicate sink events", dupPrints)
	}

	chaos, dupPrints, clientDups := runIngestCluster(t, bin, true)
	if len(chaos) != len(baseline) {
		t.Fatalf("chaos run externalized %d distinct events, baseline %d", len(chaos), len(baseline))
	}
	for id := range baseline {
		if !chaos[id] {
			t.Fatalf("event %s missing from chaos run", id)
		}
	}
	if dupPrints != 0 {
		t.Fatalf("chaos run printed %d duplicate sink events; retries or replay leaked past suppression", dupPrints)
	}
	if clientDups == 0 {
		t.Fatal("no client resend was absorbed as a duplicate; the failover dedup path was not exercised")
	}
}
