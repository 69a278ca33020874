// Command streammine runs an event stream processing pipeline described
// by a JSON topology file on the speculative engine, publishing synthetic
// events through its sources and reporting end-to-end latency and
// throughput per sink.
//
// Usage:
//
//	streammine -topology pipeline.json
//	streammine -topology pipeline.json -debug-addr :8090   # + /metrics, pprof
//	streammine -topology pipeline.json -trace run.jsonl    # + lifecycle spans
//	streammine -topology pipeline.json -trace run.jsonl -trace-sample 0  # crash trail only
//	streammine -example > pipeline.json   # print a starter topology
//
// Cluster mode splits the same topology across worker processes
// (docs/CLUSTER.md):
//
//	streammine -coordinator :7000 -topology pipeline.json
//	streammine -worker -join :7000 -name w1 -state-dir /tmp/sm-state
//	streammine -worker -join :7000 -name w2 -state-dir /tmp/sm-state
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/url"
	"os"
	"sync"
	"time"

	"streammine/internal/autolimit"
	"streammine/internal/chaos"
	"streammine/internal/core"
	"streammine/internal/debugserver"
	"streammine/internal/event"
	"streammine/internal/ingest"
	"streammine/internal/metrics"
	"streammine/internal/operator"
	"streammine/internal/profiler"
	"streammine/internal/storage"
	"streammine/internal/topology"
	"streammine/internal/transport"
	"streammine/internal/vclock"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// observability bundles the opt-in instrumentation configured by the
// -debug-addr and -trace flags: a metrics registry served over HTTP and
// a JSONL event-lifecycle tracer (docs/OBSERVABILITY.md).
type observability struct {
	registry  *metrics.Registry
	tracer    *metrics.Tracer
	addr      string
	server    *debugserver.Server
	traceFile *os.File
	// sections are the planes a flag switched on before the server
	// exists (-chaos); serve mounts them.
	sections []debugserver.Section
}

// newObservability configures instrumentation. proc labels every span
// with the process identity (worker name, "coordinator", or "" for the
// single-process engine) so tracetool can merge multi-process traces;
// sample is the head-based keep fraction of traced lineages. The tracer is
// installed as the process's, and its file is the crash trail: process-
// level records are kept at any sample and flushed as they are written.
func newObservability(debugAddr, tracePath, proc string, sample float64) (*observability, error) {
	o := &observability{addr: debugAddr}
	if debugAddr != "" {
		o.registry = metrics.NewRegistry()
		transport.RegisterMetrics(o.registry)
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, fmt.Errorf("create trace file: %w", err)
		}
		o.traceFile = f
		o.tracer = metrics.NewTracerProc(f, proc)
		o.tracer.SetSampling(sample)
		metrics.InstallTracer(o.tracer)
		if proc != "" {
			// Cluster processes die by SIGKILL in failover drills; flush
			// per-span so a kill loses at most one torn line (which
			// tracetool tolerates, like the WAL's torn tail).
			o.tracer.SetAutoFlush(true)
		}
	}
	return o, nil
}

// serve starts the debug HTTP server; call it once the engine exists so
// /healthz can report its first error.
func (o *observability) serve(health func() error) error {
	if o.addr == "" {
		return nil
	}
	o.server = debugserver.New(o.registry, health)
	o.server.Register(o.sections...)
	bound, err := o.server.Start(o.addr)
	if err != nil {
		return err
	}
	fmt.Printf("debug server on http://%s (/metrics /healthz /debug/pprof)\n", bound)
	return nil
}

// enableChaos accepts runtime fault injection at /debug/chaos: GET
// reports the armed faults, POST replaces them and writes the new state
// ("off" once cleared) to the crash trail. Without -chaos the section is
// never registered, so a production process cannot be handed a fault.
func (o *observability) enableChaos() {
	o.sections = append(o.sections, debugserver.Section{
		Name: "chaos",
		Get:  func() any { return chaos.State() },
		Post: func(q url.Values) (any, error) {
			state, err := chaos.Handle(q)
			if err != nil {
				return nil, err
			}
			if len(q) > 0 {
				o.tracer.Record("", "", metrics.PhaseChaos, state)
			}
			return state, nil
		},
	})
}

// speculationSections serves a process's speculation waste — one
// engine's ledger, or a worker's merged over its partitions — when it
// profiles speculation; otherwise the route stays "not enabled".
func speculationSections(profiling bool, waste func() *profiler.Summary) []debugserver.Section {
	if !profiling {
		return nil
	}
	return []debugserver.Section{{Name: "speculation", Get: func() any { return waste() }}}
}

func (o *observability) close() {
	if o.server != nil {
		_ = o.server.Close()
	}
	if o.tracer != nil {
		_ = o.tracer.Flush()
	}
	if o.traceFile != nil {
		fmt.Printf("trace: %d spans written to %s\n", o.tracer.Count(), o.traceFile.Name())
		_ = o.traceFile.Close()
	}
}

// sinkLatency returns the end-to-end latency histogram for a sink: a
// registered sink_latency{sink=...} series when metrics are on, or a
// detached histogram otherwise.
func (o *observability) sinkLatency(name string) *metrics.HDR {
	if o.registry == nil {
		return metrics.NewHDR()
	}
	return o.registry.HDRWith("sink_latency",
		"End-to-end latency of finalized sink outputs (source timestamp to externalization).",
		metrics.Labels{"sink": name})
}

func run() error {
	topoPath := flag.String("topology", "", "path to a JSON topology file")
	example := flag.Bool("example", false, "print an example topology and exit")
	query := flag.String("query", "", "run a continuous query against synthetic sources")
	rate := flag.Int("rate", 1000, "with -query: events/second per source")
	count := flag.Int("count", 5000, "with -query: events per source")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :8090)")
	chaosFlag := flag.Bool("chaos", false, "with -debug-addr: accept runtime fault injection at /debug/chaos (slow/lossy bridges, slow disk; docs/CAMPAIGNS.md)")
	tracePath := flag.String("trace", "", "write per-event lifecycle spans and the process's crash trail (JSONL) to this file")
	profileSpec := flag.Bool("profile-speculation", false, "enable the speculation-waste profiler (served at /debug/speculation; with -worker, waste summaries ride STATUS heartbeats to the coordinator)")
	traceSample := flag.Float64("trace-sample", 1.0, "with -trace: fraction of event lineages to keep (head-based, by trace id); 0 keeps only the crash trail")
	sloFlag := flag.Duration("slo", 0, "with -coordinator: declared end-to-end p99 latency target for /debug/health budget attribution (e.g. 50ms; overrides the topology's sloP99Millis)")
	coordAddr := flag.String("coordinator", "", "run as cluster coordinator listening on this address")
	workers := flag.Int("workers", 0, "with -coordinator: workers to wait for (default: topology placement)")
	worker := flag.Bool("worker", false, "run as cluster worker")
	join := flag.String("join", "", "with -worker: coordinator address to join")
	name := flag.String("name", "", "with -worker: worker name (default worker-<pid>)")
	dataAddr := flag.String("data-addr", "127.0.0.1:0", "with -worker: listen address for peer bridge traffic")
	stateDir := flag.String("state-dir", "streammine-state", "with -worker: root of durable partition state (shared across workers)")
	hbTimeout := flag.Duration("hb-timeout", time.Second, "cluster heartbeat timeout before a peer is declared dead")
	ingestAddr := flag.String("ingest-addr", "", "serve the multi-tenant network ingest gateway on this address; topology sources marked \"ingest\" accept records here (docs/INGEST.md)")
	ingestStateDir := flag.String("ingest-state-dir", "", "root of the per-stream ingest admission logs (default: streammine-ingest, or <state-dir>/ingest with -worker)")
	ingestTenants := flag.String("ingest-tenants", "", "JSON file declaring ingest tenants (name, token, rate, burst, maxBatch); empty runs the gateway open")
	ingestTLSCert := flag.String("ingest-tls-cert", "", "serve the ingest gateway over TLS with this certificate (PEM)")
	ingestTLSKey := flag.String("ingest-tls-key", "", "private key (PEM) for -ingest-tls-cert")
	flag.Parse()
	autolimit.Apply(logfFor("autolimit"))

	if *example {
		fmt.Println(topology.Example)
		return nil
	}
	// Resolve the span process label before the tracer exists: worker
	// names default to the pid, and the label must match what the worker
	// registers as so merged traces attribute spans to the right process.
	proc := ""
	if *coordAddr != "" {
		proc = "coordinator"
	} else if *worker {
		if *name == "" {
			*name = fmt.Sprintf("worker-%d", os.Getpid())
		}
		proc = *name
	}
	if *chaosFlag && *debugAddr == "" {
		return fmt.Errorf("-chaos requires -debug-addr (faults are armed via /debug/chaos)")
	}
	obs, err := newObservability(*debugAddr, *tracePath, proc, *traceSample)
	if err != nil {
		return err
	}
	if *chaosFlag {
		obs.enableChaos()
	}
	defer obs.close()
	icfg, err := ingestFlagsConfig(*ingestAddr, *ingestStateDir, *ingestTenants, *ingestTLSCert, *ingestTLSKey)
	if err != nil {
		return err
	}
	icfg.Addr = *ingestAddr
	if *coordAddr != "" {
		return runCoordinator(*topoPath, *coordAddr, *workers, *hbTimeout, *sloFlag, obs)
	}
	if *worker {
		return runWorker(*name, *join, *dataAddr, *stateDir, *hbTimeout, *profileSpec, icfg, obs)
	}
	if *query != "" {
		return runQuery(*query, *rate, *count, *profileSpec, obs)
	}
	if *topoPath == "" {
		return fmt.Errorf("usage: streammine -topology pipeline.json | -query \"SELECT ...\" (or -example)")
	}
	cfg, err := topology.Load(*topoPath)
	if err != nil {
		return err
	}
	built, err := cfg.Build()
	if err != nil {
		return err
	}

	diskLat := time.Duration(cfg.DiskLatencyMillis) * time.Millisecond
	nDisks := cfg.Disks
	if nDisks <= 0 {
		nDisks = 1
	}
	disks := make([]storage.Disk, nDisks)
	for i := range disks {
		if diskLat > 0 {
			disks[i] = storage.NewSimDisk(diskLat)
		} else {
			disks[i] = storage.NewMemDisk()
		}
	}
	pool := storage.NewPoolDelayed(disks, diskLat/10)
	defer pool.Close()

	wall := vclock.NewWall()
	eng, err := core.New(built.Graph, core.Options{
		Pool: pool, Seed: cfg.Seed, Clock: wall,
		Metrics: obs.registry, Tracer: obs.tracer,
		Profile: *profileSpec,
	})
	if err != nil {
		return err
	}
	if err := obs.serve(eng.Err); err != nil {
		return err
	}
	if obs.server != nil {
		obs.server.SetPressure(pressureJSON(func() any { return eng.Pressure() }))
		obs.server.Register(speculationSections(*profileSpec, eng.Waste)...)
	}
	if err := eng.Start(); err != nil {
		return err
	}
	defer eng.Stop()

	// Network ingest: start the gateway and hand it every topology source
	// marked "ingest" — the admission decision moves in front of the
	// gateway's durable admission log, and previously logged records are
	// replayed into the fresh engine before network batches are accepted.
	var gw *ingest.Server
	if icfg.Addr != "" {
		if icfg.StateDir == "" {
			icfg.StateDir = "streammine-ingest"
		}
		icfg.Registry = obs.registry
		icfg.Logf = logfFor("ingest")
		if gw, err = ingest.Start(icfg); err != nil {
			return err
		}
		defer gw.Close()
		if obs.server != nil {
			obs.server.SetDraining(gw.Draining)
		}
		fmt.Printf("ingest gateway on %s\n", gw.Addr())
	}
	for _, src := range built.Sources {
		if !src.Ingest {
			continue
		}
		if gw == nil {
			return fmt.Errorf("topology marks source %q as ingest; run with -ingest-addr", src.Name)
		}
		adm, _, err := eng.DetachSourceAdmission(src.ID)
		if err != nil {
			return err
		}
		handle, err := eng.Source(src.ID)
		if err != nil {
			adm.Close()
			return err
		}
		if err := gw.RegisterSource(src.Name, handle, adm); err != nil {
			adm.Close()
			return err
		}
		fmt.Printf("source %-10s accepting network records as stream %q\n", src.Name, src.Name)
	}

	// Sinks: latency histogram + throughput per sink node.
	type sinkStats struct {
		name string
		hist *metrics.HDR
		thr  *metrics.Throughput
	}
	var sinks []*sinkStats
	for _, id := range built.Sinks {
		node, err := built.Graph.Node(id)
		if err != nil {
			return err
		}
		st := &sinkStats{name: node.Name, hist: obs.sinkLatency(node.Name), thr: metrics.NewThroughput()}
		sinks = append(sinks, st)
		if err := eng.Subscribe(id, 0, func(ev event.Event, final bool) {
			if !final {
				return
			}
			// Output timestamps are inherited from the source event, so
			// wall.Now()-Timestamp is the end-to-end latency. (Window
			// operators stamp window boundaries; their "latency" is the
			// window lag.)
			if lat := time.Duration(wall.Now() - ev.Timestamp); lat > 0 {
				st.hist.Record(lat)
			}
			st.thr.Inc()
			if tr := obs.tracer; tr != nil {
				tr.RecordTrace(st.name, ev.ID.String(), ev.Trace, metrics.PhaseExternalize, "")
			}
		}); err != nil {
			return err
		}
	}

	// Publishers: deficit-paced to each source's rate. What is due leaves
	// through EmitBatch in runs of up to publishRun (one admission charge and
	// one injection per run), like an admission run and a commit group.
	const publishRun = 64
	var wg sync.WaitGroup
	for _, src := range built.Sources {
		if src.Ingest {
			continue
		}
		handle, err := eng.Source(src.ID)
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(src topology.SourceSpec) {
			defer wg.Done()
			start := time.Now()
			emitted := 0
			for emitted < src.Count {
				due := int(time.Since(start).Seconds()*float64(src.Rate)) + 1
				if due > src.Count {
					due = src.Count
				}
				for emitted < due {
					items := make([]core.BatchItem, min(due-emitted, publishRun))
					for i := range items {
						items[i] = core.BatchItem{Key: uint64(emitted + i), Payload: operator.EncodeValue(uint64(emitted + i))}
					}
					if _, err := handle.EmitBatch(items); err != nil && !errors.Is(err, core.ErrShed) {
						return
					}
					// A run shed by admission control burns its sequence
					// numbers; keep publishing the remainder of the stream.
					emitted += len(items)
				}
				time.Sleep(time.Millisecond)
			}
		}(src)
		fmt.Printf("source %-10s publishing %d events at %d ev/s\n", src.Name, src.Count, src.Rate)
	}
	wg.Wait()
	if gw != nil {
		// Network-fed streams are open-ended: stay up until interrupted,
		// then drain the gateway (new batches get retryable "draining"
		// verdicts, in-flight ones finish their log writes and ACKs)
		// before quiescing the engine.
		fmt.Println("ingest gateway serving; interrupt to drain and exit")
		<-interrupted()
		fmt.Println("interrupted; draining ingest gateway")
		gw.Drain(5 * time.Second)
		_ = gw.Close()
	}
	eng.Drain()
	if err := eng.Err(); err != nil {
		return err
	}

	for _, st := range sinks {
		fmt.Printf("sink %-12s events=%d rate=%.0f ev/s latency: mean=%v p50=%v p99=%v max=%v\n",
			st.name, st.hist.Count(), st.thr.PerSecond(),
			time.Duration(st.hist.Mean()), st.hist.QuantileDuration(0.5),
			st.hist.QuantileDuration(0.99), time.Duration(st.hist.Max()))
	}
	return nil
}
