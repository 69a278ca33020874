package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"streammine/internal/checkpoint"
	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/ingest"
	"streammine/internal/metrics"
	"streammine/internal/operator"
	"streammine/internal/profiler"
	"streammine/internal/recovery"
	"streammine/internal/storage"
	"streammine/internal/topology"
	"streammine/internal/transport"
	"streammine/internal/wal"
)

// coordinatorPeer is the failure-detector key for the control link.
const coordinatorPeer = "coordinator"

// WorkerOptions configure a cluster worker.
type WorkerOptions struct {
	// Name uniquely identifies the worker to the coordinator. Required.
	Name string
	// CoordAddr is the coordinator's control-plane address. Required.
	CoordAddr string
	// DataAddr is the listen address for bridge traffic from peer workers
	// (default "127.0.0.1:0").
	DataAddr string
	// StateDir is the root of partition durable state; partition i lives
	// in StateDir/p<i>. It must be storage that survives worker crashes
	// and is reachable by every worker (the paper's stable storage), so a
	// reassigned partition finds its predecessor's decision log and
	// checkpoints. Required.
	StateDir string
	// HeartbeatTimeout is the silence after which the coordinator is
	// considered unreachable — surfaced by Degraded, not fatal (default 1 s).
	// The worker→coordinator heartbeat period and the status-report
	// cadence derive from it (heartbeatInterval).
	HeartbeatTimeout time.Duration
	// Metrics optionally receives the cluster series.
	Metrics *metrics.Registry
	// Tracer, when set, records lifecycle spans for every partition engine
	// hosted by this worker, tagged with the worker's process label. Use
	// metrics.NewTracerProc(w, Name) so merged multi-worker traces keep
	// their origin, and Tracer.SetAutoFlush(true) so a SIGKILL loses at
	// most one torn line.
	Tracer *metrics.Tracer
	// ProfileSpeculation enables the speculation-waste profiler on every
	// partition engine this worker hosts. Cumulative waste summaries ride
	// the STATUS heartbeats to the coordinator, which merges them into
	// the cluster-wide rollup (/debug/cluster).
	ProfileSpeculation bool
	// OnSinkEvent, when set, observes every finalized event reaching a
	// sink hosted on this worker.
	OnSinkEvent func(sink string, ev event.Event)
	// Ingest, when its Addr is set, runs a network ingest gateway on this
	// worker. Sources marked "ingest" in the topology register with it
	// (stream name = source name) when their partition starts here. The
	// gateway's StateDir defaults to StateDir/ingest, so its admission
	// logs live on the same shared stable storage as partition state and
	// follow a partition across reassignment.
	Ingest ingest.Config
	// Logf optionally receives progress lines.
	Logf func(format string, args ...any)
}

// Worker joins a coordinator, runs assigned partitions as embedded
// engines, and bridges cross-partition edges to peer workers.
type Worker struct {
	opts WorkerOptions
	met  *clusterMetrics
	det  *transport.Detector

	coord   transport.Conn
	hb      *transport.Heartbeater
	dataSrv *transport.Server
	gw      *ingest.Server

	mu     sync.Mutex
	edges  map[string]transport.ConnHandler // edge key → partition input
	routes map[transport.Conn]transport.ConnHandler
	parts  map[int]*workerPart
	err    error
	closed bool

	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// workerPart is one partition hosted by this worker.
type workerPart struct {
	id    int
	epoch int

	cfg     *topology.Config
	built   *topology.Built
	eng     *core.Engine
	pool    *storage.Pool
	cutOut  []Edge
	bridges map[string]*core.ReliableBridge

	running     bool
	sourcesLeft int
	ingestSrcs  int

	// replayRecorded makes the replay span's trail record one-shot.
	replayRecorded bool
}

// StartWorker connects to the coordinator and registers. Partitions
// arrive asynchronously; Done is closed when the coordinator sends STOP
// or the worker is closed.
func StartWorker(o WorkerOptions) (*Worker, error) {
	if o.Name == "" || o.CoordAddr == "" || o.StateDir == "" {
		return nil, fmt.Errorf("cluster: Name, CoordAddr and StateDir are required")
	}
	if o.DataAddr == "" {
		o.DataAddr = "127.0.0.1:0"
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = time.Second
	}
	w := &Worker{
		opts:   o,
		met:    registerClusterMetrics(o.Metrics),
		edges:  make(map[string]transport.ConnHandler),
		routes: make(map[transport.Conn]transport.ConnHandler),
		parts:  make(map[int]*workerPart),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	w.det = transport.NewDetector(o.HeartbeatTimeout)
	if o.Ingest.Addr != "" {
		icfg := o.Ingest
		if icfg.StateDir == "" {
			icfg.StateDir = filepath.Join(o.StateDir, "ingest")
		}
		if icfg.Registry == nil {
			icfg.Registry = o.Metrics
		}
		if icfg.Logf == nil {
			icfg.Logf = o.Logf
		}
		gw, err := ingest.Start(icfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: ingest gateway: %w", err)
		}
		w.gw = gw
		w.logf("ingest gateway on %s", gw.Addr())
	}
	dataSrv, err := transport.ListenConn(o.DataAddr, w.handleData)
	if err != nil {
		if w.gw != nil {
			_ = w.gw.Close()
		}
		return nil, err
	}
	w.dataSrv = dataSrv
	coord, err := transport.Dial(o.CoordAddr, w.handleCtl)
	if err != nil {
		_ = dataSrv.Close()
		if w.gw != nil {
			_ = w.gw.Close()
		}
		return nil, fmt.Errorf("cluster: join %s: %w", o.CoordAddr, err)
	}
	w.coord = coord
	w.det.Observe(coordinatorPeer)
	reg, err := encodeCtl(transport.MsgRegister, RegisterMsg{Name: o.Name, DataAddr: dataSrv.Addr()})
	if err == nil {
		err = coord.Send(reg)
	}
	if err != nil {
		_ = coord.Close()
		_ = dataSrv.Close()
		return nil, fmt.Errorf("cluster: register: %w", err)
	}
	w.hb = transport.NewHeartbeater(coord, heartbeatInterval(o.HeartbeatTimeout))
	w.wg.Add(1)
	go w.statusLoop()
	return w, nil
}

// DataAddr returns the bound bridge-traffic address.
func (w *Worker) DataAddr() string { return w.dataSrv.Addr() }

// Ingest returns the worker's ingest gateway, or nil when none is
// configured.
func (w *Worker) Ingest() *ingest.Server { return w.gw }

// Done is closed when the worker shuts down.
func (w *Worker) Done() <-chan struct{} { return w.done }

// Err returns the first fatal error, if any.
func (w *Worker) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Degraded lists the peers this worker depends on that are currently
// unreachable: the coordinator when its heartbeats stopped, and any
// cross-worker bridge without a live connection. Empty means healthy.
func (w *Worker) Degraded() []string {
	var down []string
	if !w.det.Alive(coordinatorPeer) {
		down = append(down, coordinatorPeer)
	}
	w.mu.Lock()
	for _, p := range w.parts {
		for key, b := range p.bridges {
			if !b.Connected() {
				down = append(down, "bridge "+key)
			}
		}
	}
	w.mu.Unlock()
	sort.Strings(down)
	return down
}

// Pressure returns flow-control snapshots for every running partition
// hosted by this worker, ordered by partition ID — the same data the
// STATUS reports carry to the coordinator.
func (w *Worker) Pressure() []PartitionPressure {
	w.mu.Lock()
	var out []PartitionPressure
	for id, p := range w.parts {
		if p.running {
			out = append(out, PartitionPressure{
				Partition: id, Worker: w.opts.Name, Nodes: p.eng.Pressure(),
			})
		}
	}
	w.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Partition < out[j].Partition })
	return out
}

// Close tears the worker down: engines stop, bridges and listeners close.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	parts := make([]*workerPart, 0, len(w.parts))
	for _, p := range w.parts {
		parts = append(parts, p)
	}
	w.mu.Unlock()
	close(w.stop)
	w.hb.Stop()
	w.wg.Wait()
	for _, p := range parts {
		for _, b := range p.bridges {
			_ = b.Close()
		}
		if p.eng != nil {
			p.eng.Stop()
		}
		if p.pool != nil {
			_ = p.pool.Close()
		}
	}
	_ = w.coord.Close()
	if w.gw != nil {
		_ = w.gw.Close()
	}
	err := w.dataSrv.Close()
	select {
	case <-w.done:
	default:
		close(w.done)
	}
	return err
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// trail writes one process-level record about a partition (-1: the
// worker itself) to the worker's tracer.
func (w *Worker) trail(partition int, phase, format string, args ...any) {
	tr := w.opts.Tracer
	if tr == nil {
		return
	}
	node := ""
	if partition >= 0 {
		node = fmt.Sprintf("p%d", partition)
	}
	tr.Record(node, "", phase, fmt.Sprintf(format, args...))
}

// fail records a fatal worker error and reports it to the coordinator.
func (w *Worker) fail(partition, epoch int, err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
	w.logf("partition %d failed: %v", partition, err)
	w.trail(partition, metrics.PhaseLifecycle, "failed epoch=%d: %v", epoch, err)
	w.sendStatus(StatusMsg{
		Name: w.opts.Name, Partition: partition, Epoch: epoch,
		Phase: PhaseError, Err: err.Error(),
	})
}

// sendStatus encodes the report's section snapshots — outside the
// worker's lock, they are private copies — and sends it. A snapshot that
// is nil (profiler off, nothing rebuilt yet) encodes as JSON null and is
// left out.
func (w *Worker) sendStatus(st StatusMsg) {
	st.Sections = make(map[string]json.RawMessage, len(st.snaps))
	for name, snap := range st.snaps {
		body, err := json.Marshal(snap)
		if err != nil {
			w.logf("partition %d: encode section %s: %v", st.Partition, name, err)
		} else if string(body) != "null" {
			st.Sections[name] = body
		}
	}
	msg, err := encodeCtl(transport.MsgStatus, st)
	if err != nil {
		return
	}
	w.met.statusEncoded(len(msg.Payload))
	_ = w.coord.Send(msg)
}

// handleCtl dispatches coordinator control messages.
func (w *Worker) handleCtl(m transport.Message) {
	w.met.control(m.Type)
	w.det.Observe(coordinatorPeer)
	switch m.Type {
	case transport.MsgAssign:
		var am AssignMsg
		if err := decodeCtl(m, &am); err != nil {
			w.logf("bad ASSIGN: %v", err)
			return
		}
		w.handleAssign(am)
	case transport.MsgStart:
		var sm StartMsg
		if err := decodeCtl(m, &sm); err != nil {
			w.logf("bad START: %v", err)
			return
		}
		w.handleStart(sm)
	case transport.MsgStop:
		var stm StopMsg
		_ = decodeCtl(m, &stm)
		w.logf("stopping: %s", stm.Reason)
		w.trail(-1, metrics.PhaseLifecycle, "stop: %s", stm.Reason)
		go w.Close()
	}
}

// handleAssign builds a new partition, or retargets an existing one's
// bridges when the coordinator re-sends an assignment after moving a
// downstream partition.
func (w *Worker) handleAssign(am AssignMsg) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	if p := w.parts[am.Partition]; p != nil {
		if am.Epoch < p.epoch {
			w.mu.Unlock()
			return // stale
		}
		p.epoch = am.Epoch
		p.cutOut = am.CutOut
		type retgt struct {
			b    *core.ReliableBridge
			addr string
		}
		var rts []retgt
		for _, e := range am.CutOut {
			if b := p.bridges[e.Key()]; b != nil {
				rts = append(rts, retgt{b, e.PeerAddr})
			}
		}
		phase := PhaseReady
		if p.running {
			phase = PhaseRunning
		}
		st := w.partStatusLocked(p, phase)
		w.mu.Unlock()
		for _, r := range rts {
			w.logf("partition %d: retarget bridge → %s", am.Partition, r.addr)
			w.trail(am.Partition, metrics.PhaseLifecycle, "retarget bridge → %s", r.addr)
			r.b.Retarget(r.addr)
		}
		w.sendStatus(st)
		return
	}
	w.mu.Unlock()

	p, err := w.buildPartition(am)
	if err != nil {
		w.fail(am.Partition, am.Epoch, err)
		return
	}
	w.mu.Lock()
	w.parts[am.Partition] = p
	for _, e := range am.CutIn {
		h, err := p.eng.BridgeIn(p.built.Names[e.To], e.ToInput)
		if err != nil {
			w.mu.Unlock()
			w.fail(am.Partition, am.Epoch, err)
			return
		}
		w.edges[e.Key()] = h
	}
	st := w.partStatusLocked(p, PhaseReady)
	w.mu.Unlock()
	w.logf("partition %d built: nodes %v", am.Partition, am.Nodes)
	w.sendStatus(st)
}

// buildPartition constructs the partition subgraph and its engine over
// the partition's durable state directory.
func (w *Worker) buildPartition(am AssignMsg) (*workerPart, error) {
	buildStart := time.Now().UnixNano()
	cfg, err := topology.Parse(am.Topology)
	if err != nil {
		return nil, err
	}
	built, err := cfg.BuildSubset(am.Nodes)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(w.opts.StateDir, fmt.Sprintf("p%d", am.Partition))
	segStore, err := wal.OpenSegmentStore(filepath.Join(dir, "wal"), 1<<20)
	if err != nil {
		return nil, err
	}
	ckpts, err := checkpoint.NewFileStore(filepath.Join(dir, "ckpt"))
	if err != nil {
		_ = segStore.Close()
		return nil, err
	}
	pool := storage.NewPool([]storage.Disk{segStore})
	// A crash (SIGKILL, power loss) can tear the predecessor's last log
	// append; the intact prefix is the stable log — the torn record never
	// acked, so its decision was not externalized.
	scan := func() ([]wal.Record, error) {
		recs, err := segStore.Scan()
		if err != nil && errors.Is(err, wal.ErrCorrupt) {
			w.logf("partition %d: decision log has a torn tail; recovering %d intact records", am.Partition, len(recs))
			return recs, nil
		}
		return recs, err
	}
	// No Metrics here: partition engines would collide on the registry's
	// fixed engine-series names; cluster-level series cover the runtime.
	// The tracer is shared: spans are self-describing (proc + node + trace
	// id), so every partition engine can write to the same stream. The
	// waste profile is per partition: its summaries carry node names, so
	// the coordinator can merge them without collision.
	eng, err := core.New(built.Graph, core.Options{
		Pool:               pool,
		Seed:               cfg.Seed,
		CheckpointStore:    ckpts,
		LogScanner:         scan,
		RestoreFromStorage: true,
		Tracer:             w.opts.Tracer,
		Profile:            w.opts.ProfileSpeculation,
		// Health sampling is per-node and registry-free, so it stays on
		// even though the partition engine runs unmetered: the summaries
		// ride STATUS to the coordinator's health model.
		Health: true,
	})
	if err != nil {
		_ = pool.Close()
		return nil, err
	}
	// The epoch record fences lineage reconstruction: spans a dead epoch
	// wrote after its successor's epoch record are attributable to the
	// stale incarnation and discarded by tracetool.
	w.trail(am.Partition, metrics.PhaseEpoch, "partition=%d epoch=%d worker=%s nodes=%d",
		am.Partition, am.Epoch, w.opts.Name, len(am.Nodes))
	p := &workerPart{
		id:      am.Partition,
		epoch:   am.Epoch,
		cfg:     cfg,
		built:   built,
		eng:     eng,
		pool:    pool,
		cutOut:  am.CutOut,
		bridges: make(map[string]*core.ReliableBridge),
	}
	// The partition rebuild window, ASSIGN → engine built.
	recovery.RecordTransition(w.opts.Tracer, w.phaseSpan(p, recovery.PhaseRestore, buildStart, time.Now().UnixNano()))
	if w.opts.OnSinkEvent != nil {
		for _, sinkID := range built.Sinks {
			name := nodeName(built, sinkID)
			fn := w.opts.OnSinkEvent
			if err := eng.Subscribe(sinkID, 0, func(ev event.Event, final bool) {
				if final {
					fn(name, ev)
				}
			}); err != nil {
				_ = pool.Close()
				return nil, err
			}
		}
	}
	return p, nil
}

// handleStart attaches the partition's outgoing bridges and runs it.
func (w *Worker) handleStart(sm StartMsg) {
	w.mu.Lock()
	p := w.parts[sm.Partition]
	if p == nil || p.running || w.closed {
		w.mu.Unlock()
		return
	}
	p.running = true
	cutOut := p.cutOut
	w.mu.Unlock()

	// Bridges must attach before Start: adding links to a running engine
	// races with its dispatchers. This window is the credit-window
	// refill phase: every cut edge's flow-control state is rebuilt here.
	refillStart := time.Now().UnixNano()
	for _, e := range cutOut {
		hello, err := encodeCtl(transport.MsgHello, HelloMsg{Edge: e})
		if err != nil {
			w.fail(p.id, p.epoch, err)
			return
		}
		b, err := w.dialBridge(p, e, hello)
		if err != nil {
			w.fail(p.id, p.epoch, fmt.Errorf("bridge %s: %w", e.Key(), err))
			return
		}
		w.mu.Lock()
		p.bridges[e.Key()] = b
		w.mu.Unlock()
	}
	w.mu.Lock() // an epoch refresh moves p.epoch under mu
	refill := w.phaseSpan(p, recovery.PhaseRefill, refillStart, time.Now().UnixNano())
	w.mu.Unlock()
	refill.Records = int64(len(cutOut))
	recovery.RecordTransition(w.opts.Tracer, refill)
	ingestSrcs := 0
	for _, src := range p.built.Sources {
		if src.Ingest {
			ingestSrcs++
		}
	}
	if ingestSrcs > 0 && w.gw == nil {
		w.fail(p.id, p.epoch, fmt.Errorf("partition %d has ingest sources but this worker runs no ingest gateway", p.id))
		return
	}
	if err := p.eng.Start(); err != nil {
		w.fail(p.id, p.epoch, err)
		return
	}
	if rs := p.eng.RecoveryStats(); rs.RestoreStartNs != 0 {
		// The durable load: checkpoint and decision-log scan.
		restore := w.phaseSpan(p, recovery.PhaseRestore, rs.RestoreStartNs, rs.RestoreEndNs)
		restore.Bytes, restore.Records, restore.Drops = rs.CheckpointBytes, rs.LogRecords, rs.CoveredSet
		recovery.RecordTransition(w.opts.Tracer, restore)
	}
	w.mu.Lock()
	p.sourcesLeft = len(p.built.Sources) - ingestSrcs
	p.ingestSrcs = ingestSrcs
	st := w.partStatusLocked(p, PhaseRunning)
	w.mu.Unlock()
	w.logf("partition %d running (%d sources)", p.id, len(p.built.Sources))
	w.trail(p.id, metrics.PhaseLifecycle, "running epoch=%d sources=%d", p.epoch, len(p.built.Sources))
	w.sendStatus(st)
	for _, src := range p.built.Sources {
		if src.Ingest {
			// Hand the source to the gateway: the admission decision moves
			// ahead of the durable admission log (no shed is ever logged),
			// and any records logged by this partition's previous
			// incarnation are re-emitted with identical identities before
			// network batches are accepted.
			adm, _, err := p.eng.DetachSourceAdmission(src.ID)
			if err != nil {
				w.fail(p.id, p.epoch, err)
				return
			}
			h, err := p.eng.Source(src.ID)
			if err != nil {
				adm.Close()
				w.fail(p.id, p.epoch, err)
				return
			}
			if err := w.gw.RegisterSource(src.Name, h, adm); err != nil {
				adm.Close()
				w.fail(p.id, p.epoch, fmt.Errorf("register ingest source %q: %w", src.Name, err))
				return
			}
			w.logf("partition %d: ingest source %q accepting on %s", p.id, src.Name, w.gw.Addr())
			continue
		}
		w.wg.Add(1)
		go w.runSource(p, src)
	}
}

// dialBridge attaches a reliable bridge for one cut-out edge, retrying
// briefly: at initial start the peer is known-ready (the coordinator's
// start barrier), but after a reassignment the peer partition may still
// be registering its edges.
func (w *Worker) dialBridge(p *workerPart, e Edge, hello transport.Message) (*core.ReliableBridge, error) {
	opts := core.BridgeOptions{
		Hello:       &hello,
		OnReconnect: w.met.bridgeReconnected,
		RTT:         w.met.bridgeRTTHist(),
		// Credit-gate the cut edge with the receiving node's window; the
		// remote engine returns CREDIT frames as events leave its mailbox.
		CreditWindow: p.cfg.CreditWindowFor(e.To),
	}
	var (
		b   *core.ReliableBridge
		err error
	)
	for attempt := 0; attempt < 20; attempt++ {
		b, err = p.eng.BridgeOutReliableOpts(p.built.Names[e.From], e.FromPort, e.PeerAddr, opts)
		if err == nil {
			return b, nil
		}
		select {
		case <-w.stop:
			return nil, err
		case <-time.After(100 * time.Millisecond):
		}
	}
	return nil, err
}

// runSource publishes one source's events at its configured rate. An
// event's identity, timestamp and payload (its value, as in single-process
// mode) are pure functions of its sequence number, so a reassigned
// partition re-emits the identical stream and downstream dedup (paper
// §2.2) absorbs what was already processed.
func (w *Worker) runSource(p *workerPart, src topology.SourceSpec) {
	defer w.wg.Done()
	h, err := p.eng.Source(src.ID)
	if err != nil {
		w.fail(p.id, p.epoch, err)
		return
	}
	interval := time.Second / time.Duration(src.Rate)
	start := time.Now()
	for i := 1; i <= src.Count; i++ {
		if due := time.Until(start.Add(time.Duration(i) * interval)); due > 0 {
			select {
			case <-w.stop:
				return
			case <-time.After(due):
			}
		}
		if _, err := h.EmitAt(int64(i), uint64(i), operator.EncodeValue(uint64(i))); err != nil {
			if errors.Is(err, core.ErrShed) {
				// Dropped before admission: never logged, so the sequence
				// number stays burnt and re-emission after failover sheds
				// or delivers deterministically identical events.
				continue
			}
			w.fail(p.id, p.epoch, fmt.Errorf("source %q: %w", src.Name, err))
			return
		}
	}
	w.mu.Lock()
	p.sourcesLeft--
	w.mu.Unlock()
	w.logf("partition %d: source %q done (%d events)", p.id, src.Name, src.Count)
}

// partStatusLocked snapshots a partition's status. Caller holds mu.
func (w *Worker) partStatusLocked(p *workerPart, phase string) StatusMsg {
	st := StatusMsg{
		Name: w.opts.Name, Partition: p.id, Epoch: p.epoch, Phase: phase,
	}
	if p.running {
		w.recordReplayLocked(p)
		// The one list of (name, snapshot) pairs a partition ships.
		st.snaps = map[string]any{
			sectionPressure:    p.eng.Pressure(),
			sectionSpeculation: p.eng.Waste(),
			sectionHealth:      p.eng.Health(),
		}
		st.Committed = p.eng.TotalStats().Committed
		// Ingest-fed partitions are open-ended: producers may reconnect
		// at any time, so they never report quiesced and the run ends by
		// operator interrupt instead of completion detection.
		quiesced := p.sourcesLeft == 0 && p.ingestSrcs == 0 && p.eng.Quiesced()
		// A disconnected outgoing bridge means a peer still owes us a
		// replay request (or is mid-recovery); the run cannot be complete
		// until every cross-worker edge is live again.
		for _, b := range p.bridges {
			if !b.Connected() {
				quiesced = false
			}
		}
		st.Quiesced = quiesced
	}
	return st
}

// recordReplayLocked writes the replay span's trail record once the
// partition's replay plan has drained; the status tick polls for it, as
// the engine announces no end of replay. Caller holds mu.
func (w *Worker) recordReplayLocked(p *workerPart) {
	if p.replayRecorded || w.opts.Tracer == nil {
		return
	}
	rs := p.eng.RecoveryStats()
	if rs.ReplayStartNs == 0 || rs.ReplayEndNs == 0 {
		return
	}
	p.replayRecorded = true
	replay := w.phaseSpan(p, recovery.PhaseReplay, rs.ReplayStartNs, rs.ReplayEndNs)
	replay.Events, replay.Drops = rs.ReplayEvents, rs.ReplayDrops
	recovery.RecordTransition(w.opts.Tracer, replay)
}

// phaseSpan is one of the partition's recovery spans, attributed to this
// worker at the partition's current epoch.
func (w *Worker) phaseSpan(p *workerPart, phase string, startNs, endNs int64) recovery.Span {
	return recovery.Span{
		Phase: phase, Partition: p.id, Epoch: p.epoch,
		Worker: w.opts.Name, StartNs: startNs, EndNs: endNs,
	}
}

// Waste merges the speculation-waste summaries of every running partition
// hosted by this worker (the same summaries shipped to the coordinator),
// or nil when profiling is off or nothing runs yet.
func (w *Worker) Waste() *profiler.Summary {
	w.mu.Lock()
	var parts []*profiler.Summary
	for _, p := range w.parts {
		if !p.running {
			continue
		}
		if s := p.eng.Waste(); s != nil {
			parts = append(parts, s)
		}
	}
	w.mu.Unlock()
	if len(parts) == 0 {
		return nil
	}
	return profiler.Merge(parts...)
}

// statusLoop periodically reports every partition to the coordinator's
// completion detector.
func (w *Worker) statusLoop() {
	defer w.wg.Done()
	ticker := time.NewTicker(heartbeatInterval(w.opts.HeartbeatTimeout))
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-ticker.C:
		}
		w.mu.Lock()
		var sts []StatusMsg
		for _, p := range w.parts {
			phase := PhaseReady
			if p.running {
				phase = PhaseRunning
			}
			sts = append(sts, w.partStatusLocked(p, phase))
		}
		w.mu.Unlock()
		for _, st := range sts {
			w.sendStatus(st)
		}
	}
}

// handleData routes worker-to-worker data connections: the first frame is
// a HELLO naming the edge; later frames go to that edge's engine input.
// A hello for an edge this worker doesn't (yet) host closes the
// connection, so the upstream bridge backs off and redials.
func (w *Worker) handleData(c transport.Conn, m transport.Message) {
	if m.Type == transport.MsgHello {
		w.met.control(m.Type)
		var hm HelloMsg
		if err := decodeCtl(m, &hm); err != nil {
			w.logf("bad HELLO: %v", err)
			_ = c.Close()
			return
		}
		w.mu.Lock()
		h, ok := w.edges[hm.Edge.Key()]
		if ok {
			w.routes[c] = h
		}
		w.mu.Unlock()
		if !ok {
			w.logf("no route for edge %s; closing", hm.Edge.Key())
			_ = c.Close()
		}
		return
	}
	w.mu.Lock()
	h := w.routes[c]
	w.mu.Unlock()
	if h != nil {
		h(c, m)
	}
}

// nodeName reverse-maps a node ID to its topology name.
func nodeName(b *topology.Built, id graph.NodeID) string {
	for name, nid := range b.Names {
		if nid == id {
			return name
		}
	}
	return fmt.Sprintf("node-%d", id)
}
