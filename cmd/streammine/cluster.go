package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"streammine/internal/cluster"
	"streammine/internal/debugserver"
	"streammine/internal/event"
	"streammine/internal/ingest"
	"streammine/internal/metrics"
)

// ingestFlagsConfig folds the -ingest-* flags into a gateway config.
// Addr stays empty here; the caller sets it so "no -ingest-addr" keeps
// the gateway off in every mode.
func ingestFlagsConfig(addr, stateDir, tenantsPath, tlsCert, tlsKey string) (ingest.Config, error) {
	cfg := ingest.Config{StateDir: stateDir, TLSCert: tlsCert, TLSKey: tlsKey}
	if (tlsCert == "") != (tlsKey == "") {
		return cfg, fmt.Errorf("-ingest-tls-cert and -ingest-tls-key must be given together")
	}
	if tenantsPath != "" {
		tenants, err := ingest.LoadTenants(tenantsPath)
		if err != nil {
			return cfg, err
		}
		cfg.Tenants = tenants
	}
	if addr == "" && (stateDir != "" || tenantsPath != "" || tlsCert != "") {
		return cfg, fmt.Errorf("-ingest-state-dir, -ingest-tenants and -ingest-tls-* require -ingest-addr")
	}
	return cfg, nil
}

// runCoordinator serves the cluster control plane: it waits for workers,
// deploys the topology across them per its placement section, supervises
// heartbeats, and reassigns partitions when a worker dies.
func runCoordinator(topoPath, addr string, workers int, hbTimeout, slo time.Duration, obs *observability) error {
	if topoPath == "" {
		return fmt.Errorf("usage: streammine -coordinator ADDR -topology pipeline.json")
	}
	data, err := os.ReadFile(topoPath)
	if err != nil {
		return fmt.Errorf("read topology: %w", err)
	}
	c, err := cluster.NewCoordinator(data, cluster.CoordinatorOptions{
		Addr:             addr,
		Workers:          workers,
		HeartbeatTimeout: hbTimeout,
		SLO:              slo,
		Metrics:          obs.registry,
		Logf:             logfFor("coordinator"),
	})
	if err != nil {
		return err
	}
	defer c.Close()
	if err := obs.serve(c.Err); err != nil {
		return err
	}
	if obs.server != nil {
		// /healthz carries the per-partition queue-depth / credit snapshot
		// folded from worker STATUS reports.
		obs.server.SetPressure(pressureJSON(func() any { return c.Pressure() }))
		obs.server.Register(coordinatorSections(c)...)
	}
	fmt.Printf("coordinator on %s, waiting for workers\n", c.Addr())
	select {
	case <-c.Done():
	case <-interrupted():
		fmt.Println("interrupted; stopping workers")
	}
	return c.Err()
}

// coordinatorSections are the telemetry planes only a coordinator has:
// the membership / partition / pressure / waste rollup, the live health
// model (SLO budget attribution, backpressure chains, stragglers), the
// stitched recovery anatomy, and the cluster-wide speculation waste
// merged from worker STATUS reports.
func coordinatorSections(c *cluster.Coordinator) []debugserver.Section {
	return []debugserver.Section{
		{Name: "cluster", Get: func() any { return c.View() }},
		{Name: "health", Get: func() any { return c.Health() }},
		{Name: "recovery", Get: func() any { return c.RecoveryReport() }},
		{Name: "speculation", Get: func() any { return c.Waste() }},
	}
}

// runWorker joins a coordinator and hosts whatever partitions it assigns.
// Finalized sink events are printed one per line ("SINK <name> <id>") so
// callers can collect the externalized output of a distributed run.
func runWorker(name, join, dataAddr, stateDir string, hbTimeout time.Duration, profileSpec bool, icfg ingest.Config, obs *observability) error {
	if join == "" {
		return fmt.Errorf("usage: streammine -worker -join ADDR [-name N] [-state-dir DIR]")
	}
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	onSink := printSinkEvent
	if tr := obs.tracer; tr != nil {
		// Externalization closes the lineage: it is the only span emitted
		// outside the engine, from the worker that hosts the sink.
		onSink = func(sink string, ev event.Event) {
			tr.RecordTrace(sink, ev.ID.String(), ev.Trace, metrics.PhaseExternalize, "")
			printSinkEvent(sink, ev)
		}
	}
	w, err := cluster.StartWorker(cluster.WorkerOptions{
		Name:               name,
		CoordAddr:          join,
		DataAddr:           dataAddr,
		StateDir:           stateDir,
		HeartbeatTimeout:   hbTimeout,
		Metrics:            obs.registry,
		Tracer:             obs.tracer,
		OnSinkEvent:        onSink,
		Ingest:             icfg,
		Logf:               logfFor(name),
		ProfileSpeculation: profileSpec,
	})
	if err != nil {
		return err
	}
	defer w.Close()
	if gw := w.Ingest(); gw != nil {
		fmt.Printf("INGEST %s\n", gw.Addr())
	}
	if err := obs.serve(w.Err); err != nil {
		return err
	}
	if obs.server != nil {
		obs.server.SetDraining(func() bool {
			gw := w.Ingest()
			return gw != nil && gw.Draining()
		})
		// /healthz answers "degraded: coordinator" / "degraded: bridge ..."
		// while a peer this worker depends on is unreachable, plus the
		// flow-control pressure snapshot of the hosted partitions.
		obs.server.SetDegraded(w.Degraded)
		obs.server.SetPressure(pressureJSON(func() any { return w.Pressure() }))
		obs.server.Register(speculationSections(profileSpec, w.Waste)...)
	}
	fmt.Printf("worker %q joined %s (data %s)\n", name, join, w.DataAddr())
	select {
	case <-w.Done():
	case <-interrupted():
		if gw := w.Ingest(); gw != nil {
			fmt.Println("interrupted; draining ingest gateway")
			gw.Drain(3 * time.Second)
		}
		fmt.Println("interrupted; shutting down")
	}
	return w.Err()
}

func printSinkEvent(sink string, ev event.Event) {
	fmt.Printf("SINK %s %s\n", sink, ev.ID)
}

// pressureJSON adapts a pressure snapshot provider to the debug server's
// /healthz line format. Empty snapshots produce no output.
func pressureJSON(fn func() any) func() string {
	return func() string {
		v := fn()
		data, err := json.Marshal(v)
		if err != nil || string(data) == "null" || string(data) == "[]" {
			return ""
		}
		return "pressure: " + string(data)
	}
}

func logfFor(role string) func(string, ...any) {
	return func(format string, args ...any) {
		fmt.Printf("[%s] "+format+"\n", append([]any{role}, args...)...)
	}
}

func interrupted() <-chan os.Signal {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	return ch
}
