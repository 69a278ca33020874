package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"streammine/internal/checkpoint"
	"streammine/internal/detrand"
	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/profiler"
	"streammine/internal/state"
	"streammine/internal/stm"
	"streammine/internal/transport"
	"streammine/internal/wal"
)

// cmdReexec asks the dispatcher to re-execute a task whose transaction tx
// was aborted (rollback, cascade, or conflict retry).
type cmdReexec struct {
	t  *task
	tx *stm.Tx
}

// cmdInject carries a run of source-node events from a SourceHandle, in
// emission (sequence) order: one mailbox push, one dispatcher turn, one
// downstream delivery. one backs the run of a single Emit, so that call
// costs one allocation rather than a slice and a command.
type cmdInject struct {
	evs []event.Event
	one [1]event.Event
}

// node is the runtime for one graph node: a dispatcher goroutine that owns
// ordering decisions, a worker pool that executes tasks under speculative
// transactions, and a committer that commits tasks in arrival order once
// they are authorized (log stable + inputs final + dependencies committed).
//
// Lock order: a task's mu comes before its node's mu. publishOutputs and
// retireGroup buffer output records, and finalizeRun stashes an early
// FINALIZE, under n.mu while holding t.mu; nothing takes the two the other
// way round while the node runs (crash walks the task table under n.mu and
// locks each task, but only after the node's goroutines are joined). Every
// other mutex here — commitMu, recMu, errMu, rngMu, and the ones inside the
// mailbox, the executor queue, the links and the throttle — is a leaf: no
// other lock is acquired while it is held. The committer holds no lock
// across a commit group.
type node struct {
	eng  *Engine
	spec graph.Node
	opID uint32
	mem  *stm.Memory
	log  *wal.Log

	rngMu sync.Mutex
	rng   *detrand.Source

	mailbox *mailbox
	execQ   *taskQueue

	mu            sync.Mutex
	tasks         map[event.ID]*task
	bySeq         map[int64]*task
	nextSeq       int64
	committed     map[event.ID]bool
	outBuf        map[event.ID]*outRecord
	outEmitSeq    uint64
	lastCommitted map[int]event.ID
	sinceCkpt     []ackTarget
	ckptEpoch     uint64
	coveredLSN    wal.LSN
	commitCount   uint64

	commitMu   sync.Mutex
	commitCond *sync.Cond
	commitGen  uint64
	nextCommit atomic.Int64
	retiring   atomic.Int32 // tasks of the commit group being retired (see openCount)

	// commitRun/commitTxs are the committer's gather scratch, touched only
	// by the committer goroutine and reused across groups (the committer
	// wakes once per notification, far more often than it commits — fresh
	// slices per wakeup would churn the allocator). retirePosts and fin are
	// retireGroup's phase and emission scratch, committer-only likewise.
	commitRun   []*task
	commitTxs   []*stm.Tx
	retirePosts []retirePost
	fin         finFlush

	// admit and finHits are the scratch of admitRun and finalizeRun,
	// dispatcher-only. Reusing them keeps the finalize path allocation-free
	// and admission down to what it must retain (both guarded by
	// AllocsPerRun tests).
	admit   admitScratch
	finHits []finHit

	// replay, when non-nil, holds the recovery-mode admission plan;
	// recoverDrop holds the IDs of logged events the restored snapshot
	// already covers, whose redeliveries must be dropped (both guarded
	// by mu).
	replay      *replayPlan
	recoverDrop map[event.ID]bool

	// rec* instrument the restore/replay path for the recovery anatomy
	// profiler (Engine.RecoveryStats). All guarded by mu: restoreDurable
	// writes the restore window before the node's goroutines start,
	// planRun stamps replay progress, and the recoverDrop sites count
	// dedup drops.
	recStats nodeRecoveryStats

	// pendFin and pendRevoke (guarded by mu) absorb control-lane
	// reordering: with lane-separated mailboxes a FINALIZE or REVOKE can
	// be processed before its EVENT clears the data lane. Early
	// finalizations are stashed by version; early revocations are
	// counted (one REVOKE consumes exactly one queued incarnation of the
	// event, and incarnations arrive in FIFO order on the data lane).
	pendFin    map[event.ID]event.Version
	pendRevoke map[event.ID]int

	links    [][]link
	upstream map[int]upstreamSender

	// Flow control (all nil/empty when unconfigured — see internal/flow).
	// granters return credits per input as events leave the mailbox;
	// inGates are the gates feeding this node (reset on recovery);
	// credLinks are credit-gated output links (quiescence accounting);
	// throttle caps open speculative tasks; admission rate-limits a
	// source node. granters and inGates are wired before start and
	// immutable afterwards; credLinks appends are wiring-time only.
	granters  map[int]creditGranter
	inGates   []*flow.CreditGate
	credLinks []*creditedLink
	throttle  *flow.SpecThrottle
	// admission rate-limits a source node. It is held behind an atomic
	// pointer because an ingest gateway may take ownership of the
	// controller (Engine.DetachSourceAdmission) while status loops
	// concurrently snapshot the node's pressure.
	admission atomic.Pointer[flow.Admission]

	// prof is this node's speculation-waste ledger; nil when profiling is
	// off, so every recording site pays one pointer check.
	prof *profiler.NodeProfile

	stopFlag atomic.Bool
	wg       sync.WaitGroup

	errMu    sync.Mutex
	firstErr error

	// stableRecs mirrors this node's decision records once stable — the
	// recovery read path (equivalent to scanning the log disk). Sorted by
	// LSN on demand. Stored in fixed-size chunks so the steady-state
	// append never reallocates the whole mirror (a contiguous slice costs
	// an O(history) copy on every growth and keeps the full history hot
	// for the garbage collector).
	recMu      sync.Mutex
	stableRecs [][]wal.Record

	// healthLat is the per-node admission→commit latency HDR feeding
	// Engine.Health (nil unless Options.Health; a nil HDR is inert).
	healthLat *metrics.HDR

	cDispatched     atomic.Uint64
	cExecuted       atomic.Uint64
	cCommitted      atomic.Uint64
	cReexec         atomic.Uint64
	cSpecSent       atomic.Uint64
	cFinalSent      atomic.Uint64
	openTainted     atomic.Int64
	finalViolations atomic.Uint64
}

// ackTarget identifies one consumed input event pending upstream ACK.
type ackTarget struct {
	input int
	id    event.ID
}

// newNode builds the runtime for a graph node.
func newNode(eng *Engine, spec graph.Node, rng *detrand.Source, log *wal.Log) (*node, error) {
	capWords := spec.Traits.StateWords + 64
	if capWords < 256 {
		capWords = 256
	}
	opID := uint32(spec.ID)
	if spec.StableID != 0 {
		opID = spec.StableID // cluster partitions keep global identities
	}
	n := &node{
		eng:           eng,
		spec:          spec,
		opID:          opID,
		mem:           stm.NewMemory(capWords),
		log:           log,
		rng:           rng,
		mailbox:       newMailbox(),
		execQ:         newTaskQueue(),
		tasks:         make(map[event.ID]*task),
		bySeq:         make(map[int64]*task),
		committed:     make(map[event.ID]bool),
		outBuf:        make(map[event.ID]*outRecord),
		lastCommitted: make(map[int]event.ID),
		links:         make([][]link, spec.OutputPorts),
		upstream:      make(map[int]upstreamSender),
		pendFin:       make(map[event.ID]event.Version),
		pendRevoke:    make(map[event.ID]int),
		granters:      make(map[int]creditGranter),
		nextSeq:       1,
		healthLat:     newHealthHDR(eng.opts.Health),
	}
	if f := spec.Flow; f != nil {
		if f.MailboxCap > 0 {
			n.mailbox.SetDataCap(f.MailboxCap)
		}
		n.throttle = flow.NewSpecThrottle(f)
	}
	n.nextCommit.Store(1)
	n.commitCond = sync.NewCond(&n.commitMu)
	return n, nil
}

func (n *node) addLink(port int, l link) {
	n.links[port] = append(n.links[port], l)
	if cl, ok := l.(*creditedLink); ok {
		n.credLinks = append(n.credLinks, cl)
	}
}

// creditQueued sums output events waiting for credits across this node's
// credit-gated links. They are in flight for quiescence purposes: no
// mailbox holds them yet, but they will be delivered.
func (n *node) creditQueued() int {
	total := 0
	for _, cl := range n.credLinks {
		total += cl.queued()
	}
	return total
}

// upstreamSender delivers control messages (ACK, REPLAY) against the data
// direction: to a node in the same engine or over a bridge connection.
type upstreamSender interface {
	send(m transport.Message)
}

// localUpstream targets a node in the same engine.
type localUpstream struct{ n *node }

func (u localUpstream) send(m transport.Message) { u.n.mailbox.Push(m) }

// remoteUpstream targets a bridged engine over a transport connection.
type remoteUpstream struct{ c transport.Conn }

func (u remoteUpstream) send(m transport.Message) { _ = u.c.Send(m) }

func (n *node) setUpstream(input int, up upstreamSender) {
	n.mu.Lock()
	n.upstream[input] = up
	n.mu.Unlock()
}

// bufferedLinks counts links on a port that participate in ACKs.
func (n *node) bufferedLinks(port int) int {
	c := 0
	for _, l := range n.links[port] {
		if l.buffered() {
			c++
		}
	}
	return c
}

// installProfiler binds the node's profiler hooks to its current STM
// memory: the conflict sink and the address→state-bucket resolver. Called
// at wiring time and again after recovery replaces the memory (both
// single-threaded with respect to the node's workers).
func (n *node) installProfiler() {
	if n.prof == nil {
		return
	}
	n.prof.SetResolver(state.Names(n.mem).Describe)
	n.mem.SetConflictSink(n.prof)
}

// specDepth reads the node's current speculation depth (open tainted
// tasks) for waste attribution.
func (n *node) specDepth() int64 { return n.openTainted.Load() }

// chargeAbort records one aborted attempt in the waste ledger and, when
// profiler metrics are registered, observes the speculation depth at
// abort. cpu is the CPU of the wasted attempt (zero when the task never
// executed, or when profiling is off and nothing was timed).
func (n *node) chargeAbort(c profiler.Cause, cpu time.Duration) {
	if n.prof == nil {
		return
	}
	depth := n.specDepth()
	n.prof.AbortedAttempt(c, cpu, depth)
	if m := n.eng.met; m != nil && m.abortSpecDepth != nil {
		m.abortSpecDepth.Observe(depth)
	}
}

// initContext adapts the node for operator.Init.
type initContext struct{ n *node }

func (c initContext) Memory() *stm.Memory { return c.n.mem }
func (c initContext) OperatorID() uint32  { return c.n.opID }

// start initializes the operator and launches the goroutines. With
// RestoreFromStorage set, the node first primes itself from durable
// state so a restarted process resumes where its predecessor left off.
func (n *node) start() error {
	if n.spec.Op != nil {
		if err := n.spec.Op.Init(initContext{n: n}); err != nil {
			return fmt.Errorf("init: %w", err)
		}
	}
	if n.eng.opts.RestoreFromStorage {
		if err := n.restoreDurable(); err != nil {
			return fmt.Errorf("restore %q: %w", n.spec.Name, err)
		}
	}
	n.launch()
	return nil
}

// launch starts the node's goroutines: the dispatcher, the workers and the
// committer. stop and crash join them through wg.
func (n *node) launch() {
	n.wg.Add(2 + n.spec.Workers)
	go n.dispatcher()
	for i := 0; i < n.spec.Workers; i++ {
		go n.worker()
	}
	go n.committer()
}

// stop shuts the node down and waits for its goroutines.
func (n *node) stop() {
	if n.stopFlag.Swap(true) {
		return
	}
	n.admission.Load().Close()
	n.throttle.Close()
	n.mailbox.Close()
	n.execQ.Close()
	n.notifyCommitter()
	n.wg.Wait()
	for _, cl := range n.credLinks {
		cl.close()
	}
	if n.spec.Op != nil {
		_ = n.spec.Op.Terminate()
	}
}

// fail records the node's first operator error.
func (n *node) fail(err error) {
	n.errMu.Lock()
	if n.firstErr == nil {
		n.firstErr = err
	}
	n.errMu.Unlock()
}

// err returns the node's first operator error.
func (n *node) err() error {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	return n.firstErr
}

// stats snapshots the node counters. The STM stats go through memStats
// (node lock) because crash recovery swaps the memory object.
func (n *node) stats() NodeStats {
	memStats := n.memStats()
	return NodeStats{
		Dispatched:      n.cDispatched.Load(),
		Executed:        n.cExecuted.Load(),
		Committed:       n.cCommitted.Load(),
		Reexecuted:      n.cReexec.Load(),
		SpecSent:        n.cSpecSent.Load(),
		FinalSent:       n.cFinalSent.Load(),
		Aborts:          memStats.Aborts,
		Conflicts:       memStats.Conflicts,
		FinalViolations: n.finalViolations.Load(),
	}
}

// openCount reports tasks not yet committed or cleaned up, counting a
// committed group until its FINALIZE, late-final and ACK frames have left
// (n.retiring), so a drained node has nothing left to deliver.
func (n *node) openCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.bySeq) + int(n.retiring.Load())
}

// drain blocks until the node has no queued work, no open tasks, and no
// outputs parked behind credit gates.
func (n *node) drain() {
	for !n.stopFlag.Load() {
		if n.mailbox.Len() == 0 && n.execQ.Len() == 0 && n.openCount() == 0 &&
			n.creditQueued() == 0 {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// ---------- dispatcher ----------

// dispatcher serializes ordering decisions: event admission (assigning the
// per-node sequence = STM timestamp, the logged input-order decision),
// replacements, finalization, revocation, ACK bookkeeping and re-execution
// requests.
func (n *node) dispatcher() {
	defer n.wg.Done()
	for {
		item, ok := n.mailbox.Pop()
		if !ok {
			return
		}
		switch v := item.(type) {
		case transport.Message:
			n.handleMessage(v)
		case cmdReexec:
			n.handleReexec(v)
		case *cmdInject:
			n.handleInject(v)
		}
	}
}

// handleMessage normalises a frame to its run at the edge (eventsOf,
// refsOf) and hands it to the one handler of its family.
func (n *node) handleMessage(m transport.Message) {
	var oneEv [1]event.Event
	if evs := eventsOf(&m, &oneEv); evs != nil {
		// The events left the data lane: return their credits so the
		// upstream sender may transmit the next ones.
		if g := n.granters[m.Input]; g != nil {
			g.grant(len(evs))
		}
		n.admitRun(m.Input, evs)
		return
	}
	var oneRef [1]transport.FinalizeRef
	if refs, ack := refsOf(&m, &oneRef); refs != nil {
		if ack {
			n.ackRun(refs)
		} else {
			n.finalizeRun(refs)
		}
		return
	}
	switch m.Type {
	case transport.MsgRevoke:
		n.handleRevoke(m)
	case transport.MsgReplay:
		n.handleReplay()
	}
}

// admitScratch is admitRun's reusable working set (see node.admit).
type admitScratch struct {
	planned  []plannedEvent
	fresh    []*task
	deferred []deferredAdmit
}

// deferredAdmit is an admission outcome that needs n.mu released: a
// replacement for the live task t, or (t nil) a duplicate to re-ACK.
type deferredAdmit struct {
	t     *task
	input int
	ev    event.Event
}

// admitRun admits a run of input events, in order. Each becomes a new task
// — assigned the per-node sequence, which is the STM timestamp and the
// logged input-order decision — unless its ID is already known: then it is
// a duplicate to re-ACK, or a replacement for a live task (paper §3.1:
// reception of E1”). The whole run is admitted under ONE n.mu hold and its
// input-order records reach the decision log as ONE append — one
// group-commit pool round trip however long the run — so the logged
// decision sequence, and therefore recovery, is the same as if the events
// had arrived one frame at a time. In recovery mode the run first passes
// through the replay plan (planRun), which enforces the logged admission
// order and attaches logged decisions; the loop below is the same either
// way. Outcomes that need the lock released are deferred past the unlock
// in arrival order.
func (n *node) admitRun(input int, evs []event.Event) {
	a := &n.admit
	stateful := n.spec.Traits.Stateful
	stamp := n.eng.met != nil || n.healthLat != nil
	fresh, deferred := a.fresh[:0], a.deferred[:0]
	n.mu.Lock()
	planned := n.planRun(a.planned[:0], input, evs)
	// Payloads often alias one wire frame; detach them with a single arena
	// copy for the whole run instead of one allocation per event. The
	// run's tasks likewise share one allocation.
	arena := 0
	for i := range planned {
		arena += len(planned[i].ev.Payload)
	}
	buf := make([]byte, 0, arena)
	var block []task
	var recs []wal.Record
	for i := range planned {
		pe := &planned[i]
		ev := pe.ev
		id := ev.ID
		if n.committed[id] || n.recoverDrop[id] {
			// Precise recovery: a replayed duplicate of a committed event
			// is byte-identical and silently dropped, and so is a
			// redelivery of an event the restored snapshot already covers
			// (its covering mark never became stable). Re-ACK so upstream
			// prunes.
			if !n.committed[id] {
				n.recStats.replayDrops++
			}
			deferred = append(deferred, deferredAdmit{input: pe.input, ev: ev})
			continue
		}
		if t, ok := n.tasks[id]; ok {
			deferred = append(deferred, deferredAdmit{t: t, ev: ev})
			continue
		}
		// Absorb control-lane overtaking: a REVOKE processed before this
		// event cleared the data lane kills exactly this incarnation; an
		// early FINALIZE for this version marks it final on arrival.
		// (Stashes are written and consumed only on the dispatcher.)
		if n.takePendRevoke(id) {
			continue
		}
		n.takePendFin(&ev)
		if len(ev.Payload) > 0 {
			start := len(buf)
			buf = append(buf, ev.Payload...)
			ev.Payload = buf[start:len(buf):len(buf)]
		}
		if block == nil {
			block = make([]task, 0, len(planned)-i)
		}
		block = block[:len(block)+1]
		t := &block[len(block)-1]
		t.n, t.seq, t.input, t.state = n, n.nextSeq, pe.input, taskQueued
		t.ev, t.evFinal = ev, !ev.Speculative
		t.decisions, t.maxLSN = pe.decisions, pe.maxLSN
		if stamp {
			t.admitted = time.Now()
		}
		n.nextSeq++
		n.tasks[id] = t
		n.bySeq[t.seq] = t
		if stateful && !pe.logged {
			// The interleaving order across inputs is a non-deterministic
			// decision for stateful operators: log it before execution can
			// externalize anything that depends on it (replayed events are
			// already logged). The task is unpublished until n.mu is
			// released, so its pendingLogs needs no t.mu.
			if recs == nil {
				recs = make([]wal.Record, 0, len(planned)-i)
			}
			t.logsInput = true
			t.pendingLogs++
			recs = append(recs, wal.Record{
				Kind:     wal.KindInput,
				Operator: n.opID,
				Event:    id,
				Value:    uint64(pe.input),
			})
		}
		fresh = append(fresh, t)
	}
	n.mu.Unlock()
	if len(fresh) > 0 {
		n.cDispatched.Add(uint64(len(fresh)))
		if tr := n.eng.tracer; tr != nil {
			for _, t := range fresh {
				if tr.Keeps(t.ev.Trace) {
					tr.RecordTrace(n.spec.Name, t.ev.ID.String(), t.ev.Trace, metrics.PhaseIngress,
						fmt.Sprintf("input=%d spec=%t", t.input, t.ev.Speculative))
				}
			}
		}
		n.execQ.PushAll(fresh)
		// Deferred workers must re-pop: a new task may be the commit head.
		// One wake covers the whole run (Wake broadcasts to every parked
		// worker).
		n.throttle.Wake()
	}
	for i := range deferred {
		if d := &deferred[i]; d.t != nil {
			n.applyReplacement(d.t, d.ev)
		} else {
			n.ackUpstream(d.input, d.ev.ID)
		}
	}
	if len(recs) > 0 {
		n.logInputs(block, recs)
	}
	// Drop what the scratch references (payloads, decisions, tasks).
	clear(planned)
	clear(fresh)
	clear(deferred)
	a.planned, a.fresh, a.deferred = planned[:0], fresh[:0], deferred[:0]
}

// takePendRevoke consumes one early REVOKE stashed for id, reporting
// whether there was one. Caller holds n.mu.
func (n *node) takePendRevoke(id event.ID) bool {
	c := n.pendRevoke[id]
	if c > 1 {
		n.pendRevoke[id] = c - 1
	} else {
		delete(n.pendRevoke, id)
	}
	return c > 0
}

// takePendFin consumes an early FINALIZE stashed for ev's ID unless it is
// for a later version, marking ev final when it is for exactly this one.
// Caller holds n.mu.
func (n *node) takePendFin(ev *event.Event) {
	if v, ok := n.pendFin[ev.ID]; ok && v <= ev.Version {
		delete(n.pendFin, ev.ID)
		if v == ev.Version {
			ev.Speculative = false
		}
	}
}

// logInputs submits a run's input-order records as one append; a single
// Append preserves the admission-order LSN sequence exactly as per-event
// appends would have produced it.
func (n *node) logInputs(block []task, recs []wal.Record) {
	_, err := n.log.Append(recs, func(err error) {
		if err != nil {
			n.fail(fmt.Errorf("decision log: %w", err))
			return
		}
		n.mirrorStable(recs)
		creditInputs(block, recs)
		n.notifyCommitter()
	})
	if err != nil {
		n.fail(fmt.Errorf("submit decision log: %w", err))
		creditInputs(block, nil)
	}
}

// creditInputs settles the pending input-record append of a run's tasks:
// record j belongs to the j-th task of block that logs its input. recs is
// nil when the append could not be submitted.
func creditInputs(block []task, recs []wal.Record) {
	j := 0
	for i := range block {
		if t := &block[i]; t.logsInput {
			var lsn wal.LSN
			if recs != nil {
				lsn = recs[j].LSN
			}
			t.logDone(lsn)
			j++
		}
	}
}

// applyReplacement updates a task's input event in place. Identical
// content only upgrades finality; changed content rolls the task back.
func (n *node) applyReplacement(t *task, ev event.Event) {
	// Consume control-lane stashes targeting this incarnation before the
	// normal replacement logic, so an early FINALIZE/REVOKE lands exactly
	// as if it had arrived in order.
	n.mu.Lock()
	revoked := n.takePendRevoke(ev.ID)
	if !revoked {
		n.takePendFin(&ev)
	}
	n.mu.Unlock()
	if revoked {
		if n.prof != nil {
			n.eng.causedBy(ev.ID.Source)
		}
		n.cancelTask(t, "revoke")
		return
	}
	t.mu.Lock()
	if t.state == taskCommitted || t.state == taskCancelled {
		t.mu.Unlock()
		return
	}
	if t.ev.SameContent(ev) {
		changed := false
		if !ev.Speculative && !t.evFinal {
			t.evFinal = true
			t.ev.Speculative = false
			changed = true
		}
		if ev.Version > t.ev.Version {
			t.ev.Version = ev.Version
		}
		t.mu.Unlock()
		if changed {
			n.notifyCommitter()
		}
		return
	}
	// Content changed: adopt the new version and roll back if the old one
	// was already (being) processed.
	t.ev = ev.Clone()
	t.evFinal = !ev.Speculative
	tx := t.tx
	st := t.state
	hadSent := len(t.sent) > 0
	attemptNs := t.attemptNs
	t.mu.Unlock()
	if st == taskExecuting || st == taskOpen {
		if tx != nil {
			if m := n.eng.met; m != nil {
				m.abortsReplace.Inc()
				if hadSent {
					m.cascadeAborts.Inc()
				}
			}
			n.chargeAbort(profiler.CauseReplace, time.Duration(attemptNs))
			if n.prof != nil {
				n.eng.causedBy(ev.ID.Source)
			}
			if tr := n.eng.tracer; tr != nil {
				tr.RecordTrace(n.spec.Name, ev.ID.String(), ev.Trace, metrics.PhaseAbort, "cause=replacement")
			}
			tx.Abort() // OnAbort enqueues the re-execution
		}
	}
}

// finHit pairs a live task with the version a FINALIZE run wants finalized
// (scratch element; see node.finHits).
type finHit struct {
	t   *task
	ver event.Version
}

// finalizeRun applies a run of FINALIZE notices with one n.mu acquisition
// for all the task lookups and one committer wakeup for the whole run. A
// notice whose task is not admitted yet overtook its event on the control
// lane (the event is still in the data lane, or in flight behind a credit
// gate); one for a newer incarnation is ahead of the replacement queued
// behind it. Both are stashed in pendFin, and admission applies them on
// arrival.
func (n *node) finalizeRun(refs []transport.FinalizeRef) {
	hits := n.finHits[:0]
	defer func() {
		clear(hits[:cap(hits)])
		n.finHits = hits[:0]
	}()
	n.mu.Lock()
	for _, f := range refs {
		if t := n.tasks[f.ID]; t != nil {
			hits = append(hits, finHit{t, f.Version})
		} else if !n.committed[f.ID] {
			n.pendFin[f.ID] = f.Version
		}
	}
	n.mu.Unlock()
	finalized := false
	for _, h := range hits {
		t := h.t
		t.mu.Lock()
		switch {
		case t.ev.Version == h.ver && !t.evFinal:
			t.evFinal = true
			t.ev.Speculative = false
			finalized = true
		case h.ver > t.ev.Version:
			n.mu.Lock()
			if !n.committed[t.ev.ID] {
				n.pendFin[t.ev.ID] = h.ver
			}
			n.mu.Unlock()
		}
		t.mu.Unlock()
	}
	if finalized {
		n.notifyCommitter()
	}
}

// handleRevoke cancels the task consuming a revoked event and revokes its
// own outputs (cascading the revocation downstream).
func (n *node) handleRevoke(m transport.Message) {
	n.mu.Lock()
	t := n.tasks[m.ID]
	if t == nil {
		// The REVOKE overtook its event on the control lane. Count it so
		// admission drops exactly one queued incarnation on arrival.
		if !n.committed[m.ID] {
			n.pendRevoke[m.ID]++
		}
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	// The revoker (the event's source operator) caused whatever work this
	// cancellation wastes; charge it on the caused-by side of the ledger.
	if n.prof != nil {
		n.eng.causedBy(m.ID.Source)
	}
	n.cancelTask(t, "revoke")
}

// cancelTask aborts and retires a task; cause ("revoke" or "error") feeds
// the core_aborts_total metric and the abort trace span.
func (n *node) cancelTask(t *task, cause string) {
	t.mu.Lock()
	if t.state == taskCommitted || t.state == taskCancelled {
		t.mu.Unlock()
		return
	}
	t.state = taskCancelled
	tx := t.tx
	sent := t.sent
	t.sent = nil
	inputID := t.ev.ID
	inTrace := t.ev.Trace
	attemptNs := t.attemptNs
	if t.tainted {
		t.tainted = false
		n.openTainted.Add(-1)
	}
	throttled := t.throttleHeld
	t.throttleHeld = false
	t.mu.Unlock()
	if throttled {
		n.throttle.Release(true)
	}
	if m := n.eng.met; m != nil {
		switch cause {
		case "revoke":
			m.abortsRevoke.Inc()
		default:
			m.abortsError.Inc()
		}
		if len(sent) > 0 {
			m.cascadeAborts.Inc()
		}
		m.cascadeSize.Observe(int64(len(sent)))
	}
	// Ledger charges mirror the metric increments above exactly, but are
	// independent of them: cluster partition engines run without a metrics
	// registry yet still profile.
	if np := n.prof; np != nil {
		c := profiler.CauseError
		if cause == "revoke" {
			c = profiler.CauseRevoke
		}
		n.chargeAbort(c, time.Duration(attemptNs))
		np.RevokedOutputs(len(sent))
	}
	if tr := n.eng.tracer; tr != nil {
		tr.RecordTrace(n.spec.Name, inputID.String(), inTrace, metrics.PhaseAbort, "cause="+cause)
	}
	if tx != nil {
		tx.Abort()
	}
	for _, rec := range sent {
		n.revokeRecord(rec)
	}
	n.notifyCommitter()
}

func (n *node) revokeRecord(rec *outRecord) {
	n.mu.Lock()
	delete(n.outBuf, rec.id)
	n.mu.Unlock()
	if m := n.eng.met; m != nil {
		m.revokes.Inc()
	}
	if tr := n.eng.tracer; tr != nil {
		tr.RecordTrace(n.spec.Name, rec.id.String(), rec.trace, metrics.PhaseRevoke, "")
	}
	n.deliverToPort(rec.port, transport.Message{
		Type: transport.MsgRevoke, ID: rec.id, Version: rec.version,
	})
}

// ackRun prunes the output-buffer entries a run of upstream ACKs releases,
// under a single lock acquisition.
func (n *node) ackRun(refs []transport.FinalizeRef) {
	n.mu.Lock()
	for _, f := range refs {
		if rec, ok := n.outBuf[f.ID]; ok {
			rec.pendingAcks--
			if rec.pendingAcks <= 0 {
				delete(n.outBuf, f.ID)
			}
		}
	}
	n.mu.Unlock()
}

// handleReplay re-sends every unacknowledged buffered output, oldest
// first, with its current speculation state. Nodes that already saw an
// event drop it as a duplicate (and re-ACK).
func (n *node) handleReplay() {
	n.mu.Lock()
	recs := make([]*outRecord, 0, len(n.outBuf))
	for _, r := range n.outBuf {
		recs = append(recs, r)
	}
	n.mu.Unlock()
	if m := n.eng.met; m != nil {
		m.replays.Inc()
		m.replayed.Add(uint64(len(recs)))
	}
	// Oldest first so downstream admission order approximates the original.
	slices.SortFunc(recs, func(a, b *outRecord) int { return cmp.Compare(a.seq, b.seq) })
	for _, rec := range recs {
		spec := !rec.finalSent.Load()
		if tr := n.eng.tracer; tr != nil {
			phase := metrics.PhaseFinalOut
			if spec {
				phase = metrics.PhaseSpecOut
			}
			tr.RecordTrace(n.spec.Name, rec.id.String(), rec.trace, phase, "replay")
		}
		n.deliverToPort(rec.port, transport.Message{
			Type:  transport.MsgEvent,
			Event: rec.toEvent(spec),
		})
	}
}

// handleReexec re-dispatches a task whose transaction was aborted.
func (n *node) handleReexec(c cmdReexec) {
	t := c.t
	t.mu.Lock()
	if t.tx != c.tx || t.state == taskCancelled || t.state == taskCommitted {
		t.mu.Unlock()
		return
	}
	if t.state == taskExecuting {
		// The worker will observe the conflict and requeue itself.
		t.mu.Unlock()
		return
	}
	t.state = taskQueued
	t.tx = nil
	t.cursor = 0
	t.published = false
	t.mu.Unlock()
	n.cReexec.Add(1)
	if np := n.prof; np != nil {
		np.Reexec()
	}
	n.execQ.Push(t)
	// Deferred workers must re-pop: the re-queued task may be the commit
	// head (a re-execution always precedes every younger queued task).
	n.throttle.Wake()
}

// handleInject publishes a run of source events under one lock acquisition
// and one downstream delivery. Each event gets its own buffered record, sent
// final, and is ACKed and pruned individually.
func (n *node) handleInject(c *cmdInject) {
	n.mu.Lock()
	for _, ev := range c.evs {
		n.bufferOutput(ev.ID, pendingOut{ts: ev.Timestamp, key: ev.Key, payload: ev.Payload}, ev.Trace, true)
	}
	n.mu.Unlock()
	n.cFinalSent.Add(uint64(len(c.evs)))
	if m := n.eng.met; m != nil {
		m.batchSourceBatches.Inc()
		m.batchSourceEvents.Add(uint64(len(c.evs)))
	}
	if tr := n.eng.tracer; tr != nil {
		for _, ev := range c.evs {
			tr.RecordTrace(n.spec.Name, ev.ID.String(), ev.Trace, metrics.PhaseIngress, "source")
		}
	}
	n.deliverToPort(0, eventFrame(c.evs))
}

// bufferOutput creates the output-buffer record of one output event, sent
// final or speculative, and retains it for replay while any buffered link
// still has to ACK it. Caller holds n.mu.
func (n *node) bufferOutput(id event.ID, out pendingOut, trace uint64, final bool) *outRecord {
	n.outEmitSeq++
	rec := &outRecord{
		id:          id,
		port:        out.port,
		ts:          out.ts,
		key:         out.key,
		payload:     out.payload,
		trace:       trace,
		pendingAcks: n.bufferedLinks(out.port),
		seq:         n.outEmitSeq,
	}
	rec.finalSent.Store(final)
	if rec.pendingAcks > 0 {
		n.outBuf[id] = rec
	}
	return rec
}

// deliverToPort fans a message out to every link on a port.
func (n *node) deliverToPort(port int, m transport.Message) {
	for _, l := range n.links[port] {
		l.deliver(m)
	}
}

// sendUpstream sends a control message (ACK, CREDIT) against the data
// direction, to whatever currently feeds the given input.
func (n *node) sendUpstream(input int, m transport.Message) {
	n.mu.Lock()
	up := n.upstream[input]
	n.mu.Unlock()
	if up != nil {
		up.send(m)
	}
}

// ackUpstream notifies the upstream feeding the given input that an event
// will never be requested again.
func (n *node) ackUpstream(input int, id event.ID) {
	n.sendUpstream(input, transport.Message{Type: transport.MsgAck, ID: id})
}

// appendRecords submits the decision records of one execution of t to the
// log and wires the stability callback into the task.
func (n *node) appendRecords(t *task, recs []wal.Record) {
	_, err := n.log.Append(recs, func(err error) {
		if err != nil {
			n.fail(fmt.Errorf("decision log: %w", err))
			return
		}
		n.mirrorStable(recs)
		t.logDone(recs[len(recs)-1].LSN) // LSNs ascend within an append
		n.notifyCommitter()
	})
	if err != nil {
		n.fail(fmt.Errorf("submit decision log: %w", err))
		t.logDone(0)
	}
}

// ---------- workers ----------

// worker executes queued tasks under speculative transactions.
func (n *node) worker() {
	defer n.wg.Done()
	for {
		t, ok := n.execQ.Pop()
		if !ok {
			return
		}
		n.runTask(t)
	}
}

func (n *node) runTask(t *task) {
	t.mu.Lock()
	if t.state != taskQueued || t.tx != nil {
		t.mu.Unlock()
		return
	}
	attempts := t.attempts
	t.mu.Unlock()
	// Promptness/waste trade-off (paper §4): back off retries so doomed
	// speculative executions stop burning resources while the conflicting
	// older transaction is still open.
	if backoff := n.eng.opts.ConflictBackoff; backoff > 0 && attempts > 0 {
		time.Sleep(time.Duration(attempts) * backoff)
	}
	// Speculation throttle: a task takes one slot for its whole open
	// lifetime (kept across re-executions, released at commit or cancel).
	// The commit-head task bypasses the cap — strict in-order commit means
	// it must always be able to run, or younger slot-holders would
	// deadlock the pipeline. A worker must never sleep holding a refused
	// task: with every worker parked on young tasks, the commit head would
	// sit in the run queue with nobody to execute it. Instead the task is
	// handed back (the seq-ordered queue resurfaces the oldest work first)
	// and the worker parks until the throttle changes, then re-pops.
	if n.throttle != nil {
		t.mu.Lock()
		need := !t.throttleHeld && t.state == taskQueued && t.tx == nil
		t.mu.Unlock()
		if need {
			gen := n.throttle.Gen()
			admitted, closed := n.throttle.TryAdmit(func() bool { return t.seq <= n.nextCommit.Load() })
			if closed {
				return // shutting down
			}
			if !admitted {
				n.execQ.Push(t)
				n.throttle.WaitSince(gen)
				return
			}
			t.mu.Lock()
			if t.throttleHeld {
				t.mu.Unlock()
				n.throttle.Release(false) // lost an acquire race: give back
			} else {
				t.throttleHeld = true
				t.mu.Unlock()
			}
		}
	}
	t.mu.Lock()
	if t.state != taskQueued || t.tx != nil {
		t.mu.Unlock()
		return
	}
	tx := n.mem.Begin(t.seq)
	t.tx = tx
	t.state = taskExecuting
	t.attempts++
	ev := t.ev.Clone()
	decisions := t.decisions // immutable during execution
	t.mu.Unlock()

	tx.OnAbort(func(*stm.Tx) {
		n.mailbox.Push(cmdReexec{t: t, tx: tx})
	})

	// Attempt CPU is only measured when profiling is on; the clock reads
	// bracket the operator call plus STM completion, the work a later
	// abort would discard.
	var attemptStart time.Time
	if n.prof != nil {
		attemptStart = time.Now()
	}
	ctx := &procCtx{t: t, tx: tx, decisions: decisions, truncateAt: -1}
	var err error
	if n.spec.Op != nil {
		err = n.spec.Op.Process(ctx, ev)
	}
	if err == nil {
		err = tx.Complete()
	}
	var attemptDur time.Duration
	if np := n.prof; np != nil {
		attemptDur = time.Since(attemptStart)
		np.AttemptCPU(attemptDur)
		t.mu.Lock()
		t.attemptNs = attemptDur.Nanoseconds()
		t.mu.Unlock()
	}
	if err != nil {
		if errors.Is(err, stm.ErrConflict) {
			t.mu.Lock()
			if t.state == taskExecuting {
				t.state = taskQueued
			}
			t.mu.Unlock()
			// The task keeps its throttle slot across the retry, but the
			// wasted attempt feeds the abort window so the cap tightens
			// under heavy conflict churn.
			n.throttle.Observe(true)
			tx.Abort()
			n.conflictRetry(t, tx)
			return
		}
		n.fail(fmt.Errorf("node %q event %s: %w", n.spec.Name, ev.ID, err))
		tx.Abort()
		n.cancelTask(t, "error")
		return
	}

	t.mu.Lock()
	if t.state != taskExecuting || t.tx != tx {
		t.mu.Unlock()
		tx.Abort()
		return
	}
	t.state = taskOpen
	t.published = !n.spec.Speculative // speculative nodes publish below
	if ctx.truncateAt >= 0 && ctx.truncateAt < len(t.decisions) {
		t.decisions = t.decisions[:ctx.truncateAt]
	}
	t.decisions = append(t.decisions, ctx.taken...)
	t.outs = ctx.outs
	newDecs := ctx.taken
	if len(newDecs) > 0 {
		t.pendingLogs++
	}
	t.mu.Unlock()

	if len(newDecs) > 0 {
		recs := make([]wal.Record, len(newDecs))
		for i, d := range newDecs {
			recs[i] = wal.Record{Kind: d.kind, Operator: n.opID, Event: ev.ID, Value: d.value}
		}
		n.appendRecords(t, recs)
	}
	n.cExecuted.Add(1)
	if tr := n.eng.tracer; tr != nil && tr.Keeps(ev.Trace) {
		tr.RecordTrace(n.spec.Name, ev.ID.String(), ev.Trace, metrics.PhaseExec,
			fmt.Sprintf("outs=%d", len(ctx.outs)))
	}
	if n.spec.Speculative {
		n.publishOutputs(t)
	}
	n.notifyCommitter()
}

// computeTainted decides whether the task's outputs must be marked
// speculative right now (paper §3.1's fine-grained rule, plus the TaintAll
// and StrictFinality ablations).
func (n *node) computeTainted(t *task) bool {
	if !t.evFinal || t.pendingLogs > 0 {
		return true
	}
	if n.eng.opts.TaintAll {
		return n.committedBelow(t.seq)
	}
	if n.eng.opts.StrictFinality &&
		(n.openTainted.Load() > 0 || n.committedBelow(t.seq)) {
		// Any open tainted task, or ANY older uncommitted task: an older
		// task that has not even executed yet can still write state this
		// task already read, failing its validation at commit time after
		// its output went out final (the §6.1 hole, widest form).
		return true
	}
	return t.tx.DepsOpen() > 0
}

// committedBelow reports whether any task with a smaller sequence is still
// uncommitted.
func (n *node) committedBelow(seq int64) bool {
	return n.nextCommit.Load() < seq
}

// publishOutputs sends the current execution's outputs downstream,
// diffing against what was already sent: unchanged outputs are left
// alone, changed ones are re-sent as a higher version, vanished ones are
// revoked (paper §3.1).
func (n *node) publishOutputs(t *task) {
	type sendOp struct {
		rec  *outRecord
		spec bool
	}
	var sends []sendOp
	var revokes []*outRecord

	t.mu.Lock()
	if t.state != taskOpen {
		t.mu.Unlock()
		return
	}
	spec := n.computeTainted(t)
	inputID := t.ev.ID
	inTrace := t.ev.Trace
	if spec && !t.tainted {
		t.tainted = true
		n.openTainted.Add(1)
	}
	for k, out := range t.outs {
		if k < len(t.sent) {
			rec := t.sent[k]
			if rec.matches(out.port, out.ts, out.key, out.payload) {
				continue
			}
			if rec.finalSent.Load() {
				// A previously-final output changed: the theoretical hole
				// in fine-grained finality (DESIGN.md §6.1). Count it and
				// prefer correct content over the finality promise.
				n.finalViolations.Add(1)
				rec.finalSent.Store(false)
			}
			rec.version++
			rec.port, rec.ts, rec.key, rec.payload = out.port, out.ts, out.key, out.payload
			sends = append(sends, sendOp{rec: rec, spec: true})
			continue
		}
		n.mu.Lock()
		rec := n.bufferOutput(outputID(n.opID, inputID, k), out, inTrace, !spec)
		n.mu.Unlock()
		t.sent = append(t.sent, rec)
		sends = append(sends, sendOp{rec: rec, spec: spec})
	}
	if len(t.outs) < len(t.sent) {
		revokes = append(revokes, t.sent[len(t.outs):]...)
		t.sent = t.sent[:len(t.outs)]
	}
	if n.eng.met != nil {
		// Stamped under t.mu: the committer reads specAt (retireGroup) the
		// moment the task commits, which can be before the sends below.
		for _, s := range sends {
			if s.spec && s.rec.specAt.IsZero() {
				s.rec.specAt = time.Now()
			}
		}
	}
	t.published = true
	t.mu.Unlock()

	for _, s := range sends {
		if s.spec {
			n.cSpecSent.Add(1)
			if m := n.eng.met; m != nil {
				m.specDepth.Observe(n.openTainted.Load())
			}
		} else {
			n.cFinalSent.Add(1)
		}
		if tr := n.eng.tracer; tr != nil {
			phase := metrics.PhaseFinalOut
			if s.spec {
				phase = metrics.PhaseSpecOut
			}
			tr.RecordTrace(n.spec.Name, s.rec.id.String(), inTrace, phase, "from="+inputID.String())
		}
		n.deliverToPort(s.rec.port, transport.Message{
			Type: transport.MsgEvent, Event: s.rec.toEvent(s.spec),
		})
	}
	for _, rec := range revokes {
		n.revokeRecord(rec)
	}
}

// ---------- committer ----------

// notifyCommitter wakes the commit loop to re-evaluate the head task.
// It must never block for long: it is called from storage-pool callbacks.
func (n *node) notifyCommitter() {
	n.commitMu.Lock()
	n.commitGen++
	n.commitCond.Broadcast()
	n.commitMu.Unlock()
}

// commitSignalGen reads the current notification generation.
func (n *node) commitSignalGen() uint64 {
	n.commitMu.Lock()
	defer n.commitMu.Unlock()
	return n.commitGen
}

// waitCommitSignal blocks until the generation moves past seen (or stop).
func (n *node) waitCommitSignal(seen uint64) {
	n.commitMu.Lock()
	for n.commitGen == seen && !n.stopFlag.Load() {
		n.commitCond.Wait()
	}
	n.commitMu.Unlock()
}

// committer commits tasks strictly in arrival order once authorized:
// executed, input final, decisions stable, STM dependencies committed
// (paper §3: "gets the authorization to commit"). Each turn gathers the
// run of consecutive already-ready head tasks — up to the node's batch
// size, which is 1 unless flow batching is configured — and commits it as
// one group, without ever waiting for a run to fill.
func (n *node) committer() {
	defer n.wg.Done()
	max := n.spec.Flow.Batch()
	for !n.stopFlag.Load() {
		n.commitBatch(max)
	}
}

// conflictRetry records the abort accounting for a task that lost a
// conflict — while executing, at commit-time validation, or by a cascade
// abort — and makes sure a re-execution is queued.
func (n *node) conflictRetry(t *task, tx *stm.Tx) {
	t.mu.Lock()
	evID := t.ev.ID
	evTrace := t.ev.Trace
	attemptNs := t.attemptNs
	t.mu.Unlock()
	if m := n.eng.met; m != nil {
		m.abortsConflict.Inc()
	}
	n.chargeAbort(profiler.CauseConflict, time.Duration(attemptNs))
	if tr := n.eng.tracer; tr != nil {
		tr.RecordTrace(n.spec.Name, evID.String(), evTrace, metrics.PhaseAbort, "cause=conflict")
	}
	n.mailbox.Push(cmdReexec{t: t, tx: tx})
}

// commitBatch is one turn of the committer: gather the run of consecutive
// ready head tasks (up to max), group-commit their transactions under one
// version-clock bump, and run the post-commit protocol with the FINALIZE,
// late-final and ACK deliveries coalesced into one frame per port or
// input. A lone ready task commits immediately (a longer run adds no
// latency, it only amortizes tasks that are already ready).
func (n *node) commitBatch(max int) {
	gen := n.commitSignalGen()
	head := n.nextCommit.Load()
	run := n.commitRun[:0]
	txs := n.commitTxs[:0]
	defer func() {
		// Drop the pointers so committed tasks do not linger reachable
		// until the next gather overwrites their slots.
		clear(run[:cap(run)])
		clear(txs[:cap(txs)])
		n.commitRun, n.commitTxs = run[:0], txs[:0]
	}()
	for len(run) < max {
		n.mu.Lock()
		t := n.bySeq[head+int64(len(run))]
		n.mu.Unlock()
		if t == nil {
			break
		}
		t.mu.Lock()
		state := t.state
		ready := state == taskOpen && t.published && t.evFinal && t.pendingLogs == 0
		tx := t.tx
		t.mu.Unlock()
		if state == taskCancelled {
			if len(run) > 0 {
				break // commit the gathered prefix first
			}
			n.cleanupHead(t)
			return
		}
		if !ready {
			break
		}
		run = append(run, t)
		txs = append(txs, tx)
	}
	if len(run) == 0 {
		n.waitCommitSignal(gen)
		return
	}
	committed, err := n.mem.CommitGroup(txs)
	if committed > 0 {
		if m := n.eng.met; m != nil {
			m.batchCommitGroups.Inc()
			m.batchCommitEvents.Add(uint64(committed))
			m.batchOccupancy.Observe(int64(committed))
		}
		n.retireGroup(run[:committed])
	}
	switch {
	case err == nil:
	case errors.Is(err, stm.ErrDepsOpen):
		// Dependencies are earlier tasks, which commit first in seq order;
		// transient — yield and retry.
		time.Sleep(10 * time.Microsecond)
	case errors.Is(err, stm.ErrConflict):
		n.conflictRetry(run[committed], txs[committed])
		if committed == 0 {
			n.waitCommitSignal(gen)
		}
	default:
		n.fail(fmt.Errorf("commit seq %d: %w", run[committed].seq, err))
		n.cleanupHead(run[committed])
	}
}

// cleanupHead removes a cancelled head task and advances the commit
// cursor.
func (n *node) cleanupHead(t *task) {
	n.mu.Lock()
	delete(n.bySeq, t.seq)
	delete(n.tasks, t.ev.ID)
	n.mu.Unlock()
	t.mu.Lock()
	throttled := t.throttleHeld
	t.throttleHeld = false
	t.mu.Unlock()
	if throttled {
		n.throttle.Release(true)
	}
	n.nextCommit.Add(1)
	// The head moved: re-evaluate parked tasks' head-bypass even when no
	// slot was released.
	n.throttle.Wake()
}

// finFlush accumulates the control traffic of one commit group: FINALIZE
// notices and late-final events per output port, upstream ACKs per input,
// each delivered as one frame once the group has retired — the plain frame
// for a run of one. Order within a port is commit order. Ports and inputs
// are small dense ints, so the accumulators are slices indexed by them;
// they are committer-owned scratch reused across groups (node.fin), and a
// frame carrying more than one item gets its own copy, because receivers
// keep it.
type finFlush struct {
	finals [][]transport.FinalizeRef // by output port
	lates  [][]event.Event           // by output port
	acks   [][]transport.FinalizeRef // by input
}

// addAt appends v to the accumulator at index i, growing the table to it.
func addAt[T any](runs [][]T, i int, v T) [][]T {
	for len(runs) <= i {
		runs = append(runs, nil)
	}
	runs[i] = append(runs[i], v)
	return runs
}

// framed returns a scratch run in the form a frame may carry: itself when
// it holds one item (the frame takes that by value), else a copy.
func framed[T any](run []T) []T {
	if len(run) > 1 {
		return slices.Clone(run)
	}
	return run
}

// flush delivers and empties the accumulators: late finals, then FINALIZE
// notices, per port; then ACKs per input upstream.
func (fb *finFlush) flush(n *node) {
	for port, run := range fb.lates {
		if len(run) > 0 {
			n.deliverToPort(port, eventFrame(framed(run)))
			clear(run) // drop the payload references
			fb.lates[port] = run[:0]
		}
	}
	for port, run := range fb.finals {
		if len(run) > 0 {
			n.deliverToPort(port, refFrame(framed(run), false))
			fb.finals[port] = run[:0]
		}
	}
	for input, run := range fb.acks {
		if len(run) > 0 {
			n.sendUpstream(input, refFrame(framed(run), true))
			fb.acks[input] = run[:0]
		}
	}
}

// retirePost carries one task's retirement state between the phases of
// retireGroup.
type retirePost struct {
	t         *task
	inputID   event.ID
	inTrace   uint64
	input     int
	maxLSN    wal.LSN
	throttled bool
	ckptDue   bool
}

// retireGroup runs the post-commit protocol for a run of committed tasks:
// finalize speculative outputs (or publish held outputs for non-speculative
// nodes), ACK the consumed events upstream, advance the commit cursor, and
// checkpoint if due. Runs on the committer goroutine, holding no lock on
// entry. The FINALIZE, late-final and ACK deliveries collect in n.fin and
// ship last, one frame per port or input for the whole group. The map
// bookkeeping for the run happens under ONE n.mu hold, and the commit
// cursor advances once by the run length.
func (n *node) retireGroup(run []*task) {
	fb := &n.fin
	posts := n.retirePosts[:0]
	n.retiring.Store(int32(len(run)))
	defer func() {
		clear(posts[:cap(posts)]) // drop task pointers held in dead slots
		n.retirePosts = posts[:0]
		n.retiring.Store(0)
	}()
	for _, t := range run {
		t.mu.Lock()
		t.state = taskCommitted
		if t.tainted {
			t.tainted = false
			n.openTainted.Add(-1)
		}
		p := retirePost{
			t:         t,
			inputID:   t.ev.ID,
			inTrace:   t.ev.Trace,
			input:     t.input,
			maxLSN:    t.maxLSN,
			throttled: t.throttleHeld,
		}
		t.throttleHeld = false
		if n.spec.Speculative {
			for _, rec := range t.sent {
				if !rec.finalSent.CompareAndSwap(false, true) {
					continue
				}
				if m := n.eng.met; m != nil && !rec.specAt.IsZero() {
					m.specWindow.Record(time.Since(rec.specAt))
				}
				if tr := n.eng.tracer; tr != nil {
					tr.RecordTrace(n.spec.Name, rec.id.String(), rec.trace, metrics.PhaseFinalize, "")
				}
				fb.finals = addAt(fb.finals, rec.port, transport.FinalizeRef{ID: rec.id, Version: rec.version})
			}
		} else {
			// Baseline path: outputs were held; publish them final now.
			for k, out := range t.outs {
				n.mu.Lock()
				rec := n.bufferOutput(outputID(n.opID, p.inputID, k), out, p.inTrace, true)
				n.mu.Unlock()
				t.sent = append(t.sent, rec)
				n.cFinalSent.Add(1)
				if tr := n.eng.tracer; tr != nil {
					tr.RecordTrace(n.spec.Name, rec.id.String(), rec.trace, metrics.PhaseFinalOut, "from="+p.inputID.String())
				}
				fb.lates = addAt(fb.lates, rec.port, rec.toEvent(false))
			}
		}
		t.mu.Unlock()
		posts = append(posts, p)
	}
	ckpt := n.spec.Traits.Stateful && n.spec.CheckpointEvery > 0
	n.mu.Lock()
	for i := range posts {
		p := &posts[i]
		n.committed[p.inputID] = true
		delete(n.tasks, p.inputID)
		delete(n.bySeq, p.t.seq)
		delete(n.pendFin, p.inputID)
		delete(n.pendRevoke, p.inputID)
		n.lastCommitted[p.input] = p.inputID
		if p.maxLSN > n.coveredLSN {
			n.coveredLSN = p.maxLSN
		}
		n.commitCount++
		if ckpt {
			n.sinceCkpt = append(n.sinceCkpt, ackTarget{input: p.input, id: p.inputID})
			p.ckptDue = n.commitCount%uint64(n.spec.CheckpointEvery) == 0
		}
	}
	n.mu.Unlock()

	for i := range posts {
		p := &posts[i]
		// Stateless nodes (and stateful ones without periodic checkpoints)
		// ACK at commit; checkpointing stateful nodes batch their ACKs until
		// the covering checkpoint is stable (paper §2.2: upstream keeps
		// events processed after the last checkpoint).
		if !ckpt {
			fb.acks = addAt(fb.acks, p.input, transport.FinalizeRef{ID: p.inputID})
		}
		if p.ckptDue {
			n.takeCheckpoint()
		}
		if p.throttled {
			n.throttle.Release(false)
		}
	}
	n.nextCommit.Add(int64(len(posts)))
	n.throttle.Wake() // head moved: re-evaluate parked head-bypass waiters
	n.cCommitted.Add(uint64(len(posts)))
	if m := n.eng.met; m != nil || n.healthLat != nil {
		for i := range posts {
			if t := posts[i].t; !t.admitted.IsZero() {
				lat := time.Since(t.admitted)
				if m != nil {
					m.finalizeLat.Record(lat)
				}
				n.healthLat.Record(lat)
			}
		}
	}
	if tr := n.eng.tracer; tr != nil {
		for i := range posts {
			tr.RecordTrace(n.spec.Name, posts[i].inputID.String(), posts[i].inTrace, metrics.PhaseCommit, "")
		}
	}
	fb.flush(n)
}

// takeCheckpoint snapshots the operator state, persists it, marks the log
// and releases the batched upstream ACKs once the snapshot is saved.
func (n *node) takeCheckpoint() {
	n.rngMu.Lock()
	randState := n.rng.State()
	n.rngMu.Unlock()

	n.mu.Lock()
	n.ckptEpoch++
	snap := &checkpoint.Snapshot{
		Operator:       n.opID,
		Epoch:          n.ckptEpoch,
		CoveredLSN:     uint64(n.coveredLSN),
		RandState:      randState,
		Memory:         nil, // filled below, outside n.mu
		InputPositions: make(map[int]event.ID, len(n.lastCommitted)),
	}
	for i, id := range n.lastCommitted {
		snap.InputPositions[i] = id
	}
	// Committed-but-unacknowledged outputs ride in the snapshot: their
	// inputs are covered (pruned upstream, below the replay start), so
	// after a crash nothing else could regenerate them. Non-final records
	// belong to uncommitted tasks, which log replay re-executes.
	pending := make([]*outRecord, 0, len(n.outBuf))
	for _, rec := range n.outBuf {
		if rec.finalSent.Load() {
			pending = append(pending, rec)
		}
	}
	sort.Slice(pending, func(i, j int) bool { return pending[i].seq < pending[j].seq })
	for _, rec := range pending {
		snap.Outputs = append(snap.Outputs, checkpoint.Output{
			ID: rec.id, Port: rec.port, Timestamp: rec.ts,
			Key: rec.key, Version: uint32(rec.version), Payload: rec.payload,
			Trace: rec.trace,
		})
	}
	acks := n.sinceCkpt
	n.sinceCkpt = nil
	covered := n.coveredLSN
	n.mu.Unlock()

	snap.Memory = n.mem.Snapshot()
	if err := n.eng.store.Save(snap); err != nil {
		n.fail(fmt.Errorf("save checkpoint: %w", err))
		return
	}
	// Write the covering mark and mirror it (recovery reads the mirror to
	// know which prefix of the log the snapshot supersedes). The batched
	// upstream ACKs are released only once the mark is stable: releasing
	// them earlier opens a crash window in which upstream buffers are
	// pruned while the replay plan still demands the covered events.
	mark := []wal.Record{{Kind: wal.KindCheckpointMark, Operator: n.opID, Value: uint64(covered)}}
	_, err := n.log.Append(mark, func(err error) {
		if err != nil {
			n.fail(fmt.Errorf("mark checkpoint: %w", err))
			return
		}
		n.mirrorStable(mark)
		// ACKs before Truncate: a covered event is redeliverable until its
		// ACK lands, and recovery identifies covered redeliveries by their
		// input records — those must outlive the redelivery window.
		for _, a := range acks {
			n.ackUpstream(a.input, a.id)
		}
		n.log.Truncate(covered)
	})
	if err != nil {
		n.fail(fmt.Errorf("mark checkpoint: %w", err))
	}
}

// mirrorChunk is the fixed capacity of one stableRecs chunk.
const mirrorChunk = 1024

// mirrorStable retains stable decision records for recovery replay.
func (n *node) mirrorStable(recs []wal.Record) {
	n.recMu.Lock()
	for len(recs) > 0 {
		last := len(n.stableRecs) - 1
		if last < 0 || len(n.stableRecs[last]) == mirrorChunk {
			n.stableRecs = append(n.stableRecs, make([]wal.Record, 0, mirrorChunk))
			last++
		}
		room := mirrorChunk - len(n.stableRecs[last])
		take := min(room, len(recs))
		n.stableRecs[last] = append(n.stableRecs[last], recs[:take]...)
		recs = recs[take:]
	}
	n.recMu.Unlock()
}

// stableRecords returns this node's stable decision records in LSN order.
func (n *node) stableRecords() []wal.Record {
	n.recMu.Lock()
	total := 0
	for _, c := range n.stableRecs {
		total += len(c)
	}
	out := make([]wal.Record, 0, total)
	for _, c := range n.stableRecs {
		out = append(out, c...)
	}
	n.recMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].LSN < out[j].LSN })
	return out
}
