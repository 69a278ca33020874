package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"streammine/internal/core"
	"streammine/internal/health"
	"streammine/internal/metrics"
	"streammine/internal/profiler"
	"streammine/internal/recovery"
	"streammine/internal/topology"
	"streammine/internal/transport"
)

// CoordinatorOptions configure a Coordinator.
type CoordinatorOptions struct {
	// Addr is the control-plane listen address (e.g. "127.0.0.1:0").
	Addr string
	// Workers is how many workers must register before the topology is
	// deployed. Defaults to the placement's workers count, else 1.
	Workers int
	// HeartbeatInterval is the coordinator→worker heartbeat period and
	// the failure-sweep cadence (default 100 ms).
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the silence after which a worker is declared
	// dead (default 1 s).
	HeartbeatTimeout time.Duration
	// StableSweeps is how many consecutive sweeps must observe every
	// partition quiesced with an unchanged global commit count before
	// the run is declared complete (default 3).
	StableSweeps int
	// SLO is the declared end-to-end p99 latency target for health budget
	// attribution. Overrides the topology's sloP99Millis; 0 keeps the
	// topology's declaration (or none).
	SLO time.Duration
	// Metrics optionally receives the cluster series.
	Metrics *metrics.Registry
	// Logf optionally receives progress lines.
	Logf func(format string, args ...any)
}

// Coordinator deploys one topology over registered workers and supervises
// it: assignment, start, failure detection, reassignment, completion.
type Coordinator struct {
	cfg     *topology.Config
	raw     []byte
	opts    CoordinatorOptions
	srv     *transport.Server
	det     *transport.Detector
	met     *clusterMetrics
	healthM *health.Model
	recAgg  *recovery.Aggregator

	mu       sync.Mutex
	conns    map[transport.Conn]string // control conn → worker name
	workers  map[string]*coordWorker
	order    []string // registration order
	parts    map[int]*coordPart
	partOf   map[string]int // node name → partition ID
	epoch    int
	deployed bool
	launched bool
	finished bool
	err      error

	stableFor     int
	lastCommitted uint64

	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// coordWorker is the coordinator's view of one registered worker.
type coordWorker struct {
	name     string
	dataAddr string
	conn     transport.Conn
	hb       *transport.Heartbeater
}

// coordPart tracks one partition's assignment state.
type coordPart struct {
	plan      Partition
	worker    string
	epoch     int
	phase     string
	started   bool
	committed uint64
	quiesced  bool
	// latest is the newest body of every telemetry section the partition
	// has reported, by name; a STATUS report replaces the names it carries
	// (StatusMsg.Sections) and leaves the others as they were.
	latest map[string]json.RawMessage

	// Recovery catch-up tracking. rate is an EWMA of the partition's
	// commit rate (events/sec) across STATUS reports; r0 snapshots it
	// at the moment the hosting worker was declared dead. After a
	// reassignment catchPending is set and the catch-up phase runs from
	// the first post-takeover commit (catchStartNs) until the rate is
	// back to half of r0 or the partition quiesces.
	rate         float64
	lastStatus   time.Time
	r0           float64
	catchStartNs int64
	catchPending bool
}

// NewCoordinator parses the topology and starts listening for workers.
// Deployment begins once enough workers register; Done is closed when
// every partition has quiesced and been stopped (or a fatal error hit).
func NewCoordinator(topoJSON []byte, o CoordinatorOptions) (*Coordinator, error) {
	cfg, err := topology.Parse(topoJSON)
	if err != nil {
		return nil, err
	}
	if o.Workers <= 0 {
		if cfg.Placement != nil && cfg.Placement.Workers > 0 {
			o.Workers = cfg.Placement.Workers
		} else {
			o.Workers = 1
		}
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 100 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = time.Second
	}
	if o.StableSweeps <= 0 {
		o.StableSweeps = 3
	}
	c := &Coordinator{
		cfg:     cfg,
		raw:     topoJSON,
		opts:    o,
		met:     registerClusterMetrics(o.Metrics),
		conns:   make(map[transport.Conn]string),
		workers: make(map[string]*coordWorker),
		parts:   make(map[int]*coordPart),
		partOf:  make(map[string]int),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	c.healthM = health.New(cfg, health.Options{
		SLO:               o.SLO,
		HeartbeatInterval: o.HeartbeatInterval,
	})
	c.recAgg = recovery.NewAggregator()
	if o.Metrics != nil {
		registerCoordWasteMetrics(c, o.Metrics)
		health.RegisterMetrics(c.healthM, o.Metrics)
		recovery.RegisterMetrics(c.recAgg, o.Metrics)
	}
	c.det = transport.NewDetector(o.HeartbeatTimeout, nil)
	srv, err := transport.ListenConn(o.Addr, c.handle)
	if err != nil {
		return nil, err
	}
	c.srv = srv
	c.wg.Add(1)
	go c.sweep()
	return c, nil
}

// Addr returns the bound control-plane address workers join.
func (c *Coordinator) Addr() string { return c.srv.Addr() }

// Done is closed when the deployment completes or fails; check Err.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Err returns the fatal deployment error, if any.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Wait blocks until the deployment completes or fails.
func (c *Coordinator) Wait() error {
	<-c.done
	return c.Err()
}

// PartitionPressure is one partition's last-reported flow-control state.
type PartitionPressure struct {
	Partition int                 `json:"partition"`
	Worker    string              `json:"worker"`
	Nodes     []core.NodePressure `json:"nodes"`
}

// Pressure returns the latest per-partition flow-control snapshots folded
// from worker STATUS reports, ordered by partition ID. Partitions that
// have not reported pressure yet are omitted.
func (c *Coordinator) Pressure() []PartitionPressure {
	c.mu.Lock()
	var out []PartitionPressure
	for id, cp := range c.parts {
		if nodes, ok := section[[]core.NodePressure](cp.latest, sectionPressure); ok {
			out = append(out, PartitionPressure{Partition: id, Worker: cp.worker, Nodes: nodes})
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Partition < out[j].Partition })
	return out
}

// Waste merges the latest per-partition speculation-waste summaries from
// worker STATUS reports into the cluster-wide rollup, or nil when no
// partition has reported one (profiling off or nothing running yet).
func (c *Coordinator) Waste() *profiler.Summary {
	c.mu.Lock()
	var parts []*profiler.Summary
	for _, cp := range c.parts {
		if sum, ok := section[*profiler.Summary](cp.latest, sectionSpeculation); ok {
			parts = append(parts, sum)
		}
	}
	c.mu.Unlock()
	if len(parts) == 0 {
		return nil
	}
	return profiler.Merge(0, parts...)
}

// PartitionStatus is one partition's last-reported deployment state.
type PartitionStatus struct {
	Partition int    `json:"partition"`
	Worker    string `json:"worker"`
	Epoch     int    `json:"epoch"`
	Phase     string `json:"phase"`
	Committed uint64 `json:"committed"`
	Quiesced  bool   `json:"quiesced"`
}

// ClusterView is the /debug/cluster JSON body: membership, per-partition
// deployment state, flow pressure, and the merged waste rollup.
type ClusterView struct {
	Workers    []string            `json:"workers"`
	Partitions []PartitionStatus   `json:"partitions"`
	Pressure   []PartitionPressure `json:"pressure,omitempty"`
	Waste      *profiler.Summary   `json:"waste,omitempty"`
}

// View snapshots the coordinator's cluster-wide state for /debug/cluster.
func (c *Coordinator) View() ClusterView {
	var v ClusterView
	c.mu.Lock()
	for name := range c.workers {
		v.Workers = append(v.Workers, name)
	}
	for id, cp := range c.parts {
		v.Partitions = append(v.Partitions, PartitionStatus{
			Partition: id, Worker: cp.worker, Epoch: cp.epoch,
			Phase: cp.phase, Committed: cp.committed, Quiesced: cp.quiesced,
		})
	}
	c.mu.Unlock()
	sort.Strings(v.Workers)
	sort.Slice(v.Partitions, func(i, j int) bool {
		return v.Partitions[i].Partition < v.Partitions[j].Partition
	})
	v.Pressure = c.Pressure()
	v.Waste = c.Waste()
	return v
}

// Close tears the coordinator down (workers are stopped first if the run
// is still live).
func (c *Coordinator) Close() error {
	c.mu.Lock()
	already := c.finished
	c.finished = true
	var sends []transport.Conn
	if !already {
		for _, w := range c.workers {
			sends = append(sends, w.conn)
		}
	}
	c.mu.Unlock()
	if !already {
		c.broadcastStop(sends, "coordinator closing")
	}
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	c.wg.Wait()
	err := c.srv.Close()
	c.mu.Lock()
	for _, w := range c.workers {
		w.hb.Stop()
	}
	c.mu.Unlock()
	c.finish(nil)
	return err
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// fail records the first fatal error and completes the run.
func (c *Coordinator) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.finish(err)
}

// finish closes done exactly once.
func (c *Coordinator) finish(error) {
	select {
	case <-c.done:
	default:
		close(c.done)
	}
}

// handle is the control-plane connection handler.
func (c *Coordinator) handle(conn transport.Conn, m transport.Message) {
	c.met.control(m.Type)
	c.mu.Lock()
	if name, ok := c.conns[conn]; ok {
		c.det.Observe(name)
	}
	c.mu.Unlock()
	switch m.Type {
	case transport.MsgRegister:
		var reg RegisterMsg
		if err := decodeCtl(m, &reg); err != nil {
			c.logf("bad REGISTER: %v", err)
			return
		}
		c.register(conn, reg)
	case transport.MsgStatus:
		var st StatusMsg
		if err := decodeCtl(m, &st); err != nil {
			c.logf("bad STATUS: %v", err)
			return
		}
		c.status(st)
	}
}

// register admits a worker and deploys once enough have joined.
func (c *Coordinator) register(conn transport.Conn, reg RegisterMsg) {
	c.mu.Lock()
	if _, dup := c.workers[reg.Name]; dup || reg.Name == "" {
		c.mu.Unlock()
		c.logf("rejecting register %q (duplicate or empty name)", reg.Name)
		return
	}
	w := &coordWorker{
		name:     reg.Name,
		dataAddr: reg.DataAddr,
		conn:     conn,
		hb:       transport.NewHeartbeater(conn, c.opts.HeartbeatInterval),
	}
	c.workers[reg.Name] = w
	c.conns[conn] = reg.Name
	c.order = append(c.order, reg.Name)
	c.det.Observe(reg.Name)
	n := len(c.workers)
	needDeploy := !c.deployed && n >= c.opts.Workers
	if needDeploy {
		c.deployed = true
	}
	c.mu.Unlock()
	c.logf("worker %q registered (data %s), %d/%d", reg.Name, reg.DataAddr, n, c.opts.Workers)
	if needDeploy {
		if err := c.deploy(); err != nil {
			c.fail(err)
		}
	}
}

// deploy builds the plan and assigns partitions round-robin over the
// registered workers.
func (c *Coordinator) deploy() error {
	c.mu.Lock()
	avail := len(c.order)
	c.mu.Unlock()
	parts, err := BuildPlan(c.cfg, avail)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.epoch = 1
	for i, p := range parts {
		c.parts[p.ID] = &coordPart{
			plan: p, worker: c.order[i%len(c.order)], epoch: c.epoch,
			latest: make(map[string]json.RawMessage),
		}
		for _, n := range p.Nodes {
			c.partOf[n] = p.ID
		}
	}
	c.met.setPartitions(len(c.parts))
	type send struct {
		conn transport.Conn
		msg  transport.Message
	}
	var sends []send
	for _, cp := range c.parts {
		msg, err := c.assignMsgLocked(cp)
		if err != nil {
			c.mu.Unlock()
			return err
		}
		sends = append(sends, send{c.workers[cp.worker].conn, msg})
		c.logf("partition %d (%v) → worker %q", cp.plan.ID, cp.plan.Nodes, cp.worker)
	}
	c.mu.Unlock()
	for _, s := range sends {
		if err := s.conn.Send(s.msg); err != nil {
			return fmt.Errorf("cluster: assign: %w", err)
		}
	}
	return nil
}

// assignMsgLocked encodes a partition assignment with cut-out peer
// addresses resolved against the current partition→worker map. Caller
// holds mu.
func (c *Coordinator) assignMsgLocked(cp *coordPart) (transport.Message, error) {
	am := AssignMsg{
		Partition: cp.plan.ID,
		Epoch:     cp.epoch,
		Topology:  c.raw,
		Nodes:     cp.plan.Nodes,
		CutIn:     cp.plan.CutIn,
	}
	for _, e := range cp.plan.CutOut {
		downPart, ok := c.partOf[e.To]
		if !ok {
			return transport.Message{}, fmt.Errorf("cluster: edge %s: unplaced node %q", e.Key(), e.To)
		}
		host := c.parts[downPart].worker
		w := c.workers[host]
		if w == nil {
			return transport.Message{}, fmt.Errorf("cluster: edge %s: worker %q gone", e.Key(), host)
		}
		e.PeerAddr = w.dataAddr
		am.CutOut = append(am.CutOut, e)
	}
	return encodeCtl(transport.MsgAssign, am)
}

// status folds a worker's partition report into coordinator state and
// advances the start barrier.
func (c *Coordinator) status(st StatusMsg) {
	if st.Phase == PhaseError {
		c.fail(fmt.Errorf("cluster: partition %d on %q: %s", st.Partition, st.Name, st.Err))
		return
	}
	c.mu.Lock()
	cp := c.parts[st.Partition]
	if cp == nil || st.Epoch < cp.epoch || cp.worker != st.Name {
		c.mu.Unlock()
		return // stale report from a previous epoch or evicted worker
	}
	now := time.Now()
	if st.Phase == PhaseRunning {
		// Commit-rate EWMA across reports; skipped on the first report
		// of a new incarnation (the fresh engine's count restarts).
		if !cp.lastStatus.IsZero() && st.Committed >= cp.committed {
			if dt := now.Sub(cp.lastStatus).Seconds(); dt > 0 {
				inst := float64(st.Committed-cp.committed) / dt
				cp.rate = 0.5*cp.rate + 0.5*inst
			}
		}
		cp.lastStatus = now
	}
	cp.phase = st.Phase
	cp.committed = st.Committed
	cp.quiesced = st.Quiesced
	for name, body := range st.Sections {
		cp.latest[name] = body
	}
	var catchSpans []recovery.Span
	if cp.catchPending && st.Phase == PhaseRunning {
		// Catch-up runs from the first post-takeover commit until the
		// commit rate is back to half the pre-fault rate (the same
		// threshold the campaign's black-box recovery clock uses) or
		// the partition quiesces outright. When the fault hit before
		// the rate EWMA ever sampled (r0 == 0), any restored positive
		// rate counts as caught up. Arming and closing never share a
		// fold, so the span always has a measurable duration.
		if cp.catchStartNs == 0 && (st.Committed > 0 || st.Quiesced) {
			cp.catchStartNs = now.UnixNano()
		} else if cp.catchStartNs != 0 &&
			(st.Quiesced || (cp.r0 > 0 && cp.rate >= 0.5*cp.r0) || (cp.r0 <= 0 && cp.rate > 0)) {
			cp.catchPending = false
			catchSpans = append(catchSpans, recovery.Span{
				Phase: recovery.PhaseCatchup, Partition: st.Partition,
				Epoch: cp.epoch, Worker: cp.worker,
				StartNs: cp.catchStartNs, EndNs: now.UnixNano(),
				Events: int64(st.Committed),
			})
		}
	}
	type send struct {
		conn transport.Conn
		msg  transport.Message
	}
	var sends []send
	if st.Phase == PhaseReady && !cp.started {
		if c.launched {
			// Reassignment path: start the rebuilt partition right away.
			if msg, err := encodeCtl(transport.MsgStart, StartMsg{Partition: cp.plan.ID}); err == nil {
				cp.started = true
				sends = append(sends, send{c.workers[cp.worker].conn, msg})
			}
		} else {
			// Initial barrier: start everything once every partition is
			// built (so every data listener can route every edge).
			allReady := true
			for _, p := range c.parts {
				if p.phase != PhaseReady {
					allReady = false
					break
				}
			}
			if allReady {
				c.launched = true
				for _, p := range c.parts {
					msg, err := encodeCtl(transport.MsgStart, StartMsg{Partition: p.plan.ID})
					if err != nil {
						continue
					}
					p.started = true
					sends = append(sends, send{c.workers[p.worker].conn, msg})
				}
			}
		}
	}
	c.mu.Unlock()
	// The report passed stale-epoch rejection above, so it reflects the
	// partition's current incarnation: fold it into the health model
	// and its recovery spans into the anatomy aggregator.
	hs, _ := section[[]core.NodeHealth](st.Sections, sectionHealth)
	ps, _ := section[[]core.NodePressure](st.Sections, sectionPressure)
	c.healthM.Fold(st.Name, st.Partition, hs, ps, time.Now())
	if spans, ok := section[[]recovery.Span](st.Sections, sectionRecovery); ok {
		c.recAgg.Fold(spans)
	}
	if len(catchSpans) > 0 {
		c.recAgg.Fold(catchSpans)
		for _, s := range catchSpans {
			recovery.RecordTransition(s)
			c.logf("partition %d caught up (epoch %d): commit rate restored", s.Partition, s.Epoch)
		}
	}
	for _, s := range sends {
		_ = s.conn.Send(s.msg)
	}
}

// Health snapshots the coordinator's live health view (/debug/health),
// with the most recent recovery incident's digest embedded so one poll
// answers "what happened last".
func (c *Coordinator) Health() *health.View {
	v := c.healthM.Snapshot()
	if v != nil {
		v.LastRecovery = c.recAgg.Last()
	}
	return v
}

// RecoveryReport returns the stitched per-incident recovery anatomy
// (served at /debug/recovery).
func (c *Coordinator) RecoveryReport() recovery.Report {
	return c.recAgg.Report()
}

// sweep is the supervision loop: failure detection, reassignment, alive
// gauges, and completion detection.
func (c *Coordinator) sweep() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		for _, name := range c.det.Check() {
			c.workerDown(name)
		}
		c.mu.Lock()
		alive := 0
		for name := range c.workers {
			if c.det.Alive(name) {
				alive++
			}
		}
		c.mu.Unlock()
		c.met.setWorkersAlive(alive)
		c.checkComplete()
	}
}

// checkComplete closes the run once every partition is quiesced and the
// global commit count has been stable for StableSweeps sweeps.
func (c *Coordinator) checkComplete() {
	c.mu.Lock()
	if !c.launched || c.finished || len(c.parts) == 0 {
		c.mu.Unlock()
		return
	}
	var sum uint64
	settled := true
	for _, p := range c.parts {
		if p.phase != PhaseRunning || !p.quiesced {
			settled = false
			break
		}
		sum += p.committed
	}
	if !settled || sum != c.lastCommitted {
		c.stableFor = 0
		c.lastCommitted = sum
		c.mu.Unlock()
		return
	}
	c.stableFor++
	if c.stableFor < c.opts.StableSweeps {
		c.mu.Unlock()
		return
	}
	c.finished = true
	var conns []transport.Conn
	for _, w := range c.workers {
		conns = append(conns, w.conn)
	}
	c.mu.Unlock()
	c.logf("run complete: %d events committed across %d partitions", sum, len(c.parts))
	c.broadcastStop(conns, "run complete")
	c.finish(nil)
}

// broadcastStop sends STOP to the given workers.
func (c *Coordinator) broadcastStop(conns []transport.Conn, reason string) {
	msg, err := encodeCtl(transport.MsgStop, StopMsg{Reason: reason})
	if err != nil {
		return
	}
	for _, conn := range conns {
		_ = conn.Send(msg)
	}
}

// workerDown evicts a dead worker and reassigns its partitions to the
// least-loaded survivors; workers with bridges into a moved partition
// get a refreshed assignment so they retarget (paper §2.2: downstream
// failure triggers upstream replay — here via bridge reconnect).
func (c *Coordinator) workerDown(name string) {
	// Anchor the detect phase before any mutation: last heartbeat →
	// this declaration is the detection window.
	declared := time.Now()
	lastSeen, haveSeen := c.det.LastSeen(name)
	if !haveSeen || lastSeen.After(declared) {
		lastSeen = declared
	}
	c.mu.Lock()
	w := c.workers[name]
	if w == nil || c.finished {
		c.mu.Unlock()
		return
	}
	delete(c.workers, name)
	delete(c.conns, w.conn)
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	if len(c.workers) == 0 {
		c.mu.Unlock()
		w.hb.Stop()
		_ = w.conn.Close()
		c.fail(errors.New("cluster: all workers lost"))
		return
	}
	c.logf("worker %q lost; reassigning its partitions", name)
	c.healthM.RemoveWorker(name)

	load := make(map[string]int, len(c.workers))
	for _, p := range c.parts {
		if p.worker != name {
			load[p.worker]++
		}
	}
	c.epoch++
	// The rebuilt partition must re-earn completion stability from scratch.
	c.stableFor = 0
	moved := map[int]bool{}
	for id, p := range c.parts {
		if p.worker != name {
			continue
		}
		best := ""
		for _, cand := range c.order {
			if best == "" || load[cand] < load[best] {
				best = cand
			}
		}
		load[best]++
		p.worker = best
		p.epoch = c.epoch
		p.phase = ""
		p.started = false
		p.quiesced = false
		// Arm catch-up tracking: the pre-fault commit rate is the bar
		// the rebuilt partition must climb back to.
		p.r0 = p.rate
		p.rate = 0
		p.lastStatus = time.Time{}
		p.catchStartNs = 0
		p.catchPending = true
		moved[id] = true
		c.met.reassigned()
		c.logf("partition %d → worker %q (epoch %d)", id, best, c.epoch)
	}
	// Refresh assignments of partitions bridging into a moved one.
	refresh := map[int]bool{}
	for id, p := range c.parts {
		if moved[id] {
			continue
		}
		for _, e := range p.plan.CutOut {
			if moved[c.partOf[e.To]] {
				refresh[id] = true
				break
			}
		}
	}
	type send struct {
		conn transport.Conn
		msg  transport.Message
	}
	var sends []send
	for id := range moved {
		p := c.parts[id]
		msg, err := c.assignMsgLocked(p)
		if err != nil {
			c.mu.Unlock()
			c.fail(err)
			return
		}
		sends = append(sends, send{c.workers[p.worker].conn, msg})
	}
	for id := range refresh {
		p := c.parts[id]
		p.epoch = c.epoch
		msg, err := c.assignMsgLocked(p)
		if err != nil {
			c.mu.Unlock()
			c.fail(err)
			return
		}
		sends = append(sends, send{c.workers[p.worker].conn, msg})
	}
	newEpoch := c.epoch
	movedIDs := make([]int, 0, len(moved))
	for id := range moved {
		movedIDs = append(movedIDs, id)
	}
	sort.Ints(movedIDs)
	c.mu.Unlock()
	w.hb.Stop()
	_ = w.conn.Close()
	for _, s := range sends {
		_ = s.conn.Send(s.msg)
	}
	// Open the incident: the detect span covers last heartbeat →
	// declared, the decide span covers declared → ASSIGN fan-out sent
	// (epoch bump, plan diff, reassignment included).
	detSpan := recovery.Span{
		Phase: recovery.PhaseDetect, Partition: -1, Epoch: newEpoch,
		Worker: name, StartNs: lastSeen.UnixNano(), EndNs: declared.UnixNano(),
	}
	decSpan := recovery.Span{
		Phase: recovery.PhaseDecide, Partition: -1, Epoch: newEpoch,
		Worker: name, StartNs: declared.UnixNano(), EndNs: time.Now().UnixNano(),
		Records: int64(len(movedIDs)),
	}
	c.recAgg.Begin(newEpoch, name, movedIDs, detSpan, decSpan)
	recovery.RecordTransition(detSpan)
	recovery.RecordTransition(decSpan)
}
