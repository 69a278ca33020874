package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streammine/internal/core"
	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/ingest"
	"streammine/internal/metrics"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/transport"
)

// The ingest-rate workload is an open loop at a fixed offered rate, the
// only one that crosses the gateway and a cut edge:
//
//	2 × ingest.Client ─TCP→ gateway (in-memory admission log)
//	  → engine A: src → Passthrough{LogDecision}
//	  ═ reliable bridge, TCP loopback ═> engine B: SketchOp{4,1024} → sink
const (
	ingestConns     = 2
	ingestBatch     = 25                   // records per Send
	ingestInterval  = 5 * time.Millisecond // between the Sends of one connection
	ingestRate      = ingestConns * ingestBatch * int(time.Second/ingestInterval)
	ingestRecordLen = 64
	ingestStream    = "src"
	// Generator lateness above lateLimit invalidates the run. The Go runtime
	// parks in epoll_wait, whose timeout has millisecond granularity, so a
	// timer can fire up to a millisecond late on an otherwise idle thread;
	// the limit leaves that much room. (Sleeping in nanosleep(2) instead was
	// tried: it halves the lateness but the blocked thread perturbs the Go
	// scheduler and every latency figure spreads two to three times wider.)
	lateLimit = 2 * time.Millisecond
)

// Record keys are unique and spell out where the record sits in the
// schedule, so its due time needs no table: connection in the high bits,
// position in that connection's stream in the low ones. Both operators on
// the path preserve the key.
func ingestKey(conn int, n int64) uint64 { return uint64(conn)<<40 | uint64(n) }

// ingestConnStart is when connection conn's first batch is due: the
// connections' schedules are spread evenly over one interval.
func ingestConnStart(start int64, conn int) int64 {
	return start + int64(conn)*int64(ingestInterval)/ingestConns
}

// ingestDue is the due time of the batch the record with this key was
// sent in, as that connection's pacer computed it.
func ingestDue(start int64, key uint64) int64 {
	conn, n := int(key>>40), int64(key&(1<<40-1))
	return ingestConnStart(start, conn) + n/ingestBatch*int64(ingestInterval)
}

// gatewaySystem is the two-engine system behind the gateway.
type gatewaySystem struct {
	local   // engine A, with its pool and disk
	engB    *core.Engine
	poolB   *storage.Pool
	diskB   *disk
	srv     *transport.Server
	bridge  *core.ReliableBridge
	gw      *ingest.Server
	em      *gatewayEmitter
	clients []*ingest.Client
	reg     *metrics.Registry  // private registry carrying the transport_* and ingest_* series
	sent    *transport.Metrics // frames sent, by type
}

func (g *gatewaySystem) close() {
	for _, c := range g.clients {
		c.Close()
	}
	if g.gw != nil {
		_ = g.gw.Close()
	}
	if g.bridge != nil {
		_ = g.bridge.Close()
	}
	if g.srv != nil {
		_ = g.srv.Close()
	}
	g.local.close()
	if g.engB != nil {
		g.engB.Stop()
	}
	if g.poolB != nil {
		_ = g.poolB.Close()
	}
	transport.SetMetrics(nil)
}

func buildGateway(s *sink, seed uint64, start *atomic.Int64) (*gatewaySystem, error) {
	sys := &gatewaySystem{reg: metrics.NewRegistry()}
	ok := false
	defer func() {
		if !ok {
			sys.close()
		}
	}()
	limits := &flow.Limits{MailboxCap: 2048, CreditWindow: 512, BatchSize: 8}

	// Engine B first: its listener must exist before A's bridge dials.
	gB := graph.New()
	sk := gB.AddNode(graph.Node{
		Name:         "sketch",
		Op:           s.op(&operator.SketchOp{Depth: 4, Width: 1024, Seed: sketchSeed}),
		Traits:       operator.SketchTraits(4, 1024),
		Speculative:  true,
		RemoteInputs: []int{0},
		Flow:         limits,
	})
	sinkB := addSink(s, gB, "sink", sk, limits)
	sys.diskB = &disk{snk: s}
	sys.poolB = storage.NewPool([]storage.Disk{sys.diskB})
	var err error
	if sys.engB, err = core.New(gB, engineOptions(seed+1, sys.poolB)); err != nil {
		return nil, err
	}
	if err := sys.engB.Subscribe(sinkB, 0, s.onFinal); err != nil {
		return nil, err
	}
	if s.tap != nil {
		if err := sys.engB.Subscribe(sk, 0, s.tap.onEvent); err != nil {
			return nil, err
		}
	}
	if err := sys.engB.Start(); err != nil {
		return nil, err
	}
	in, err := sys.engB.BridgeIn(sk, 0)
	if err != nil {
		return nil, err
	}
	sys.sent = transport.RegisterMetrics(sys.reg)
	if sys.srv, err = transport.ListenConn("127.0.0.1:0", in); err != nil {
		return nil, err
	}

	gA := graph.New()
	src := gA.AddNode(graph.Node{Name: ingestStream, Flow: limits})
	pass := gA.AddNode(graph.Node{
		Name:        "pass",
		Op:          s.op(&operator.Passthrough{LogDecision: true}),
		Speculative: true,
		Flow:        limits,
	})
	gA.Connect(src, 0, pass, 0)
	if sys.eng, err = core.New(gA, engineOptions(seed, sys.pool(s, 0, false))); err != nil {
		return nil, err
	}
	if err := sys.eng.Start(); err != nil {
		return nil, err
	}
	sys.bridge, err = sys.eng.BridgeOutReliableOpts(pass, 0, sys.srv.Addr(), core.BridgeOptions{CreditWindow: 512, Batch: 8})
	if err != nil {
		return nil, err
	}
	if sys.src, err = sys.eng.Source(src); err != nil {
		return nil, err
	}
	adm, _, err := sys.eng.DetachSourceAdmission(src)
	if err != nil {
		return nil, err
	}
	if sys.gw, err = ingest.Start(ingest.Config{Addr: "127.0.0.1:0", Registry: sys.reg}); err != nil {
		return nil, err
	}
	sys.em = &gatewayEmitter{inner: sys.src, snk: s, due: func(key uint64) int64 { return ingestDue(start.Load(), key) }}
	if err := sys.gw.RegisterSource(ingestStream, sys.em, adm); err != nil {
		return nil, err
	}
	// Open mode: each token is its own tenant with its own sequence space.
	// A client dials on its first Send, so connecting is part of warm-up,
	// not of setup_s.
	for c := 0; c < ingestConns; c++ {
		sys.clients = append(sys.clients, ingest.NewClient(sys.gw.Addr(), ingestStream,
			ingest.ClientOptions{Token: fmt.Sprintf("bench-%d", c), Backoff: time.Millisecond, MaxElapsed: 5 * time.Second}))
	}
	ok = true
	return sys, nil
}

// connStats is what one generator connection measured.
type connStats struct {
	ack     []int64 // due time → Send returned, for batches due in the measured window
	late    []int64 // generator lateness per Send, whole run
	send    []int64 // time inside Send, measured window
	sent    int64   // records handed to Send
	refused int64   // records whose Send returned an error
	err     error
}

// ingestRun is the state of one ingest-rate run.
type ingestRun struct {
	res   *result
	snk   *sink
	sys   *gatewaySystem
	marks []mark // slice boundaries of the measured window
	conns []connStats
}

func (r *ingestRun) close() {
	if r.sys != nil {
		r.sys.close()
	}
	r.snk.close()
}

func runIngestRate(cfg runCfg) (*result, error) {
	total := cfg.warm + cfg.measure
	snk, err := newSink(int(float64(ingestRate)*total.Seconds()) + 4*ingestConns*ingestBatch)
	if err != nil {
		return nil, err
	}
	out, err := ingestAtRate(cfg, snk, total)
	out.close()
	return out.res, err
}

func ingestAtRate(cfg runCfg, snk *sink, total time.Duration) (*ingestRun, error) {
	snk.reqByKey = true
	out := &ingestRun{snk: snk, res: &result{Workload: "ingest-rate", Seed: cfg.seed, Traced: cfg.traced, Metrics: map[string]value{}}}
	if err := snk.trace(cfg); err != nil {
		return out, err
	}
	var start atomic.Int64 // schedule origin on the harness clock
	sys, setup, err := timeSetups(cfg, func() (*gatewaySystem, error) { return buildGateway(snk, cfg.seed, &start) })
	if err != nil {
		return out, err
	}
	out.sys = sys
	out.res.set("setup_s", setup, "s")

	var sm *sampler
	if cfg.traced {
		sm = startSampler(snk, cfg, sys.eng, sys.engB)
		defer sm.halt()
	}
	abort, stopWatchdog := watchdog(cfg)
	defer stopWatchdog()
	start.Store(snk.now() + int64(10*time.Millisecond))
	warmEnd := start.Load() + int64(cfg.warm)
	measureEnd := warmEnd + int64(cfg.measure)
	payload := make([]byte, ingestRecordLen)
	out.conns = make([]connStats, ingestConns)
	var wg sync.WaitGroup
	for c := range sys.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &out.conns[c]
			sends := int(total/ingestInterval) + 1
			st.ack, st.late, st.send = make([]int64, 0, sends), make([]int64, 0, sends), make([]int64, 0, sends)
			recs := make([]ingest.Record, ingestBatch)
			for i := range recs {
				recs[i].Payload = payload
			}
			p := pacer{clk: sinkClock{snk}, start: ingestConnStart(start.Load(), c), interval: int64(ingestInterval)}
			for {
				due, late := p.next()
				if due >= measureEnd {
					return
				}
				select {
				case <-abort:
					st.err = errAborted
					return
				default:
				}
				first := st.sent
				for i := range recs {
					recs[i].Key = ingestKey(c, first+int64(i))
				}
				st.sent += ingestBatch
				begin := snk.now()
				err := sys.clients[c].Send(recs)
				end := snk.now()
				p.sent()
				st.late = append(st.late, late)
				if snk.rec != nil {
					snk.rec.span(spGenSend, recs[0].Key, begin, end)
				}
				if err != nil {
					st.refused += ingestBatch
					st.err = err
					continue
				}
				if due >= warmEnd {
					st.ack = append(st.ack, end-due)
					st.send = append(st.send, end-begin)
				}
			}
		}(c)
	}
	ph, err := newPhases(snk, cfg) // only for the whole-run fallback; the slices follow the schedule
	if err != nil {
		return out, err
	}
	for _, at := range boundaries(warmEnd, cfg) {
		sleepUntil(snk, at)
		m, err := takeMark(snk)
		if err != nil {
			return out, err
		}
		out.marks = append(out.marks, m)
	}
	wg.Wait()
	drain(snk, cfg, sys.eng, sys.engB)
	whole, err := ph.wholeRun()
	if err != nil {
		return out, err
	}
	if err := endToEnd(out.res, snk, out.marks, whole); err != nil {
		return out, err
	}
	verdictInto(out.res, check(snk.slots, snk.emitted.Load(), newSketchRef(4, 1024, sketchSeed)))
	var sent int64
	for c := range out.conns {
		st := &out.conns[c]
		sent += st.sent
		if st.refused > 0 {
			out.res.Failed += st.refused
			out.res.Failures = append(out.res.Failures, failure{Reason: fmt.Sprintf("connection %d: %d records refused: %v", c, st.refused, st.err)})
		} else if st.err != nil {
			return out, st.err
		}
	}
	// Attempted is what the generator offered; records the gateway
	// acknowledged but never emitted would otherwise vanish from the count.
	if lost := sent - out.res.Attempted; lost > 0 {
		out.res.Failed += lost
	}
	out.res.Attempted = sent
	faultsInto(out.res, snk.strays.Load(), sys.eng, sys.engB)
	if sys.em.orderBroken.Load() {
		return out, fmt.Errorf("bench: the gateway emitted records in another order than it called the emitter; sink indices are unreliable")
	}
	var late []int64
	for c := range out.conns {
		late = append(late, out.conns[c].late...)
	}
	ls := summarize(late, 0.99)
	out.res.setTiming("ingest.gen_late_p99_us", ls.tail, "us", ls.n, tailNote(ls))
	if ls.tail > int64(lateLimit) {
		out.res.Invalid = fmt.Sprintf("generator ran %.0f us late at p99 (limit %.0f us): the open loop did not hold its schedule",
			float64(ls.tail)/1e3, float64(lateLimit)/1e3)
	}
	if cfg.traced {
		return out, ingestLayers(out, sm, cfg)
	}
	return out, nil
}

func sleepUntil(s *sink, t int64) { time.Sleep(time.Duration(t - s.now())) }

// ingestLayers completes the traced pass of ingest-rate.
func ingestLayers(out *ingestRun, sm *sampler, cfg runCfg) error {
	r, s, sys := out.res, out.snk, out.sys
	sm.finish(r)
	layerCounters(r, s, append(sys.disks, sys.diskB), sys.eng, sys.engB)

	st := sys.gw.Stats()
	count := func(name string, v uint64) { r.set(name, float64(v), "count") }
	count("ingest.accepted", st.Accepted)
	count("ingest.acked", st.Acked)
	count("ingest.shed", st.Shed)
	count("ingest.dedup", st.Dedup)
	var retries uint64
	for _, c := range sys.clients {
		retries += c.Retries()
	}
	count("ingest.client_retries", retries)
	admit := sys.gw.AdmitLatency()
	r.setTiming("ingest.admit_p50_us", admit.Quantile(0.5), "us", int(admit.Count()), "")
	r.setTiming("ingest.admit_p99_us", admit.Quantile(0.99), "us", int(admit.Count()), "")
	spanP50(r, "ingest.emit_batch_p50_us", s.rec, spIngestEmitBatch, "us")

	var ack []int64
	for c := range out.conns {
		ack = append(ack, out.conns[c].ack...)
	}
	a := summarize(ack, 0.99)
	r.setTiming("ingest.ack_p50_us", a.p50, "us", a.n, "")
	r.setTiming("ingest.ack_p99_us", a.tail, "us", a.n, tailNote(a))

	// The gateway's own share of a Send: the span minus the part spent
	// inside the emitter, waiting on the engine. (The admission log is in
	// memory here, so there is no disk span to subtract as well.)
	emit := make(map[uint64]interval)
	for _, sp := range s.rec.recorded() {
		if sp.kind == spIngestEmitBatch {
			emit[sp.req] = interval{sp.start, sp.end}
		}
	}
	var self []int64
	for _, sp := range s.rec.recorded() {
		if sp.kind != spGenSend {
			continue
		}
		var children []interval
		if e, ok := emit[sp.req]; ok {
			children = append(children, e)
		}
		self = append(self, selfTime(interval{sp.start, sp.end}, children))
	}
	ss := summarize(self, 0.99)
	r.setTiming("ingest.self_p50_us", ss.p50, "us", ss.n, "")

	var frames uint64
	for _, t := range wireTypes {
		n := sys.sent.Sent[t].Value()
		count("transport.msgs_sent."+wireName(t), n)
		if t == transport.MsgEvent || t == transport.MsgEventBatch {
			frames += n
		}
	}
	if frames > 0 {
		r.set("transport.events_per_frame", float64(s.emitted.Load())/float64(frames), "ratio")
	}
	return traceDone(r, s, cfg)
}

// wireTypes are the data-plane frame types a cut edge carries.
var wireTypes = []transport.MsgType{
	transport.MsgEvent, transport.MsgFinalize, transport.MsgRevoke, transport.MsgAck, transport.MsgReplay,
	transport.MsgCredit, transport.MsgEventBatch, transport.MsgFinalizeBatch, transport.MsgAckBatch,
}

func wireName(t transport.MsgType) string { return strings.ToLower(t.String()) }
