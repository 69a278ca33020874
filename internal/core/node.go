package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"streammine/internal/detrand"
	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/profiler"
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

// node is the runtime for one graph node: a dispatcher goroutine that owns
// ordering decisions and commits tasks in arrival order once they are
// authorized (log stable + inputs final + dependencies committed), and a
// worker pool that executes tasks under speculative transactions.
//
// Lock order: a task's mu comes before its node's mu. publishOutputs and
// retireGroup buffer output records, and finalizeRun stashes an early
// FINALIZE, under n.mu while holding t.mu; nothing takes the two the other
// way round while the node runs (crash walks the task table under n.mu and
// locks each task, but only after the node's goroutines are joined). Every
// other mutex here — errMu, rngMu, and the ones inside the mailbox, the
// executor queue and the links — is a leaf: no other lock is acquired while
// it is held. publishOutputs delivers each output
// under its task's mu, so a link's lock, and a subscriber's callback, come
// after t.mu. A commit turn holds no lock across a commit group.
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
	source  *SourceHandle // a source node's one handle; nil on any other

	mu    sync.Mutex
	tasks idTable[*task]
	// open holds the tasks admitted and not yet retired, oldest first.
	// Sequences are dense, so slot i is the task with seq nextSeq-open.n+i.
	open          ring[*task]
	nextSeq       int64
	committed     commitIndex // indexed once an edge may repeat: DESIGN.md §9.4
	outBuf        idTable[*outRecord]
	outEmitSeq    uint64
	lastCommitted []inputPos  // by input
	sinceCkpt     []ackTarget // commits whose ACK waits for a stable checkpoint mark
	ackedCkpt     uint64      // commits ever taken off the front of sinceCkpt
	ckptEpoch     uint64
	coveredLSN    wal.LSN
	commitCount   uint64

	nextCommit atomic.Int64

	// commitRun/commitTxs are a commit turn's gather scratch, dispatcher-
	// only and reused across turns (a turn follows every item, far more
	// often than one commits). retirePosts and fin are retireGroup's phase
	// and emission scratch, dispatcher-only likewise.
	commitRun   []*task
	commitTxs   []*stm.Tx
	retirePosts []retirePost
	fin         finFlush

	// admit and finHits are the scratch of admitRun and finalizeRun,
	// dispatcher-only. Reusing them keeps the finalize path allocation-free
	// and admission down to what it must retain (both guarded by
	// AllocsPerRun tests).
	admit    admitScratch
	finHits  []finHit
	injected slab[outRecord] // handleInject's: a source run's output records

	// replay, when non-nil, holds the replay plan of the last durable
	// restore (guarded by mu): recovery-mode admission while it is
	// replaying, and for the incarnation's life the index of the logged
	// events the restored snapshot already covers, whose redeliveries must
	// be dropped.
	replay *replayPlan

	// rec* instrument the restore/replay path for the recovery anatomy
	// profiler (Engine.RecoveryStats). All guarded by mu: restoreDurable
	// writes the restore window before the node's goroutines start,
	// planRun stamps replay progress, and admitRun counts the drops of
	// covered redeliveries.
	recStats nodeRecoveryStats

	// pendFin and pendRevoke (guarded by mu) absorb control-lane
	// reordering: with lane-separated mailboxes a FINALIZE or REVOKE can
	// be processed before its EVENT clears the data lane. Early
	// finalizations are stashed by version; early revocations by the
	// version each names, the last of the incarnation whose queued events
	// it drops (incarnations arrive in FIFO order on the data lane).
	pendFin    idTable[event.Version]
	pendRevoke idTable[[]event.Version]

	links    [][]link
	upstream []upstreamSender // by input; nil where nothing feeds it yet

	// Flow control (see internal/flow). granters return credits per input
	// as events leave the mailbox; inGates are the gates feeding this node
	// (reset on recovery); credLinks are credit-gated output links
	// (pressure accounting) — all nil/empty when unconfigured. granters
	// and inGates are wired before start and immutable afterwards;
	// credLinks appends are wiring-time only.
	granters  []creditGranter // by input; nil where the edge has no window
	inGates   []*flow.CreditGate
	credLinks []*creditedLink
	// throttle caps open speculative tasks while aborts are frequent;
	// every node has one, and the dispatcher owns it: it takes a task's
	// slot as it queues the task for execution (queueFresh) and returns
	// every slot. held is what the throttle holds back, oldest first, until
	// a slot is free or the oldest is the commit head (admitHeld);
	// dispatcher-only.
	throttle flow.SpecThrottle
	held     ring[*task]
	// admission rate-limits a source node. It is held behind an atomic
	// pointer because an ingest gateway may take ownership of the
	// controller (Engine.DetachSourceAdmission) while status loops
	// concurrently snapshot the node's pressure.
	admission atomic.Pointer[flow.Admission]

	// wit is the node's conflict witness ring; nil when profiling is off,
	// so every waste-recording site pays one pointer check.
	wit *witnessRing

	stopFlag atomic.Bool
	wg       sync.WaitGroup

	errMu    sync.Mutex
	firstErr error

	// The node's ledger: each fact is written once, here, and Metrics, the
	// waste profile and the health sample only read it (ledger, Waste,
	// Health). finLat is the admission→commit latency (nil unless
	// Options.Metrics or Options.Health); a nil HDR is inert. The waste
	// columns — abortDepth, the speculation depth at each abort, and after
	// it wasted CPU by cause, attempt CPU, witnesses by kind and the aborts
	// each input's upstream caused — are written only when profiling.
	cDispatched     atomic.Uint64
	cExecuted       atomic.Uint64
	cCommitted      atomic.Uint64
	cReexec         atomic.Uint64
	cAborts         [numCauses]atomic.Uint64 // by profiler.Cause
	cCascades       atomic.Uint64
	cRevoked        atomic.Uint64
	cSpecSent       atomic.Uint64
	cFinalSent      atomic.Uint64
	openTainted     atomic.Int64
	finalViolations atomic.Uint64
	finLat          *metrics.HDR
	abortDepth      *metrics.HDR
	cWastedNs       [numCauses]atomic.Int64 // by profiler.Cause
	cAttemptNs      atomic.Int64
	cWitnesses      [numKinds]atomic.Uint64 // by stm.ConflictKind
	cCausedBy       []inputCause            // by input; nil unless profiling
}

// numCauses sizes the ledger's aborts by cause.
const numCauses = profiler.CauseError + 1

// inputPos is one input's entry in node.lastCommitted: the last event
// committed from it, if any was.
type inputPos struct {
	id  event.ID
	set bool
}

// slot returns the address of s[i], growing s with zero values to hold it.
// The per-input tables are sized from the graph, but BridgeIn binds
// whichever input its caller names.
func slot[T any](s *[]T, i int) *T {
	for len(*s) <= i {
		var zero T
		*s = append(*s, zero)
	}
	return &(*s)[i]
}

// ackTarget identifies one consumed input event pending upstream ACK.
type ackTarget struct {
	input int
	id    event.ID
}

// newNode builds the runtime for a graph node.
func newNode(eng *Engine, spec graph.Node, inputs int, rng *detrand.Source, log *wal.Log) (*node, error) {
	capWords := spec.Traits.StateWords + 64
	if capWords < 256 {
		capWords = 256
	}
	opID := uint32(spec.ID)
	if spec.StableID != 0 {
		opID = spec.StableID // cluster partitions keep global identities
	}
	n := &node{
		eng:      eng,
		spec:     spec,
		opID:     opID,
		mem:      stm.NewMemory(capWords),
		log:      log,
		rng:      rng,
		mailbox:  newMailbox(&eng.inflight),
		execQ:    newTaskQueue(),
		links:    make([][]link, spec.OutputPorts),
		upstream: make([]upstreamSender, inputs),
		granters: make([]creditGranter, inputs),
	}
	n.lastCommitted = make([]inputPos, inputs)
	if f := spec.Flow; f != nil && f.MailboxCap > 0 {
		n.mailbox.SetDataCap(f.MailboxCap)
	}
	n.resetVolatile()
	return n, nil
}

// resetVolatile (re)creates everything a crash loses except the operator
// memory: in-flight tasks, duplicate-suppression tables, output buffer,
// stashes, replay plan, the dispatcher's slabs and scratch (a worker's go
// with its goroutine), the tasks the throttle holds back and its
// occupancy, and the sequence and commit cursors. Caller holds n.mu with
// the goroutines joined, or owns the node.
func (n *node) resetVolatile() {
	n.admit, n.fin, n.injected = admitScratch{}, finFlush{}, slab[outRecord]{}
	n.held = ring[*task]{}
	n.throttle.Reset()
	n.tasks = idTable[*task]{}
	n.open = ring[*task]{}
	n.committed = commitIndex{}
	n.outBuf = idTable[*outRecord]{}
	clear(n.lastCommitted)
	n.pendFin = idTable[event.Version]{}
	n.pendRevoke = idTable[[]event.Version]{}
	n.ackedCkpt += uint64(len(n.sinceCkpt)) // a mark appended before the crash releases none
	n.replay, n.sinceCkpt = nil, nil
	n.nextSeq, n.outEmitSeq, n.commitCount = 1, 0, 0
	n.nextCommit.Store(1)
}

func (n *node) addLink(port int, l link) {
	n.links[port] = append(n.links[port], l)
	if cl, ok := l.(*creditedLink); ok {
		n.credLinks = append(n.credLinks, cl)
	}
}

// creditQueued sums the frames queued on this node's credit-gated links.
func (n *node) creditQueued() int {
	total := 0
	for _, cl := range n.credLinks {
		total += cl.q.len()
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
	*slot(&n.upstream, input) = up
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

// abort writes one aborted attempt to the ledger — its cause, and a
// cascade when the task had live downstream outputs, and when profiling
// the attempt's CPU and the speculation depth — and writes the abort trace
// record. attemptNs is zero when the task never executed, or when
// profiling is off and nothing was timed.
func (n *node) abort(c profiler.Cause, cascade bool, attemptNs int64, id event.ID, trace uint64) {
	n.cAborts[c].Add(1)
	if cascade {
		n.cCascades.Add(1)
	}
	if n.wit != nil {
		n.cWastedNs[c].Add(attemptNs)
		n.abortDepth.Observe(n.openTainted.Load())
	}
	if tr := n.eng.tracer; tr != nil {
		tr.RecordTrace(n.spec.Name, id.String(), trace, metrics.PhaseAbort, "cause="+c.String())
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
		d, err := n.readDurable()
		if err == nil {
			err = n.restoreDurable(d)
		}
		if err != nil {
			return fmt.Errorf("restore %q: %w", n.spec.Name, err)
		}
		// Over an empty store this is a fresh start: nothing it sends can
		// repeat an output, and nothing it receives a commit.
		if d.snap != nil || d.plan != nil {
			n.armDedup()
			n.redeliver()
		}
		n.releaseRestored()
	}
	n.launch()
	return nil
}

// launch starts the node's goroutines: the dispatcher and the workers. stop
// and crash join them through wg.
func (n *node) launch() {
	n.wg.Add(1 + n.spec.Workers)
	go n.dispatcher()
	for i := 0; i < n.spec.Workers; i++ {
		go n.worker()
	}
}

// stop shuts the node down and waits for its goroutines.
func (n *node) stop() {
	if n.stopFlag.Swap(true) {
		return
	}
	n.admission.Load().Close()
	n.settle(n.mailbox.Close())
	n.execQ.Close()
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

// ledger reads the node's ledger counters (NodeStats without the STM's).
func (n *node) ledger() NodeStats {
	s := NodeStats{
		Dispatched:      n.cDispatched.Load(),
		Executed:        n.cExecuted.Load(),
		Committed:       n.cCommitted.Load(),
		Reexecuted:      n.cReexec.Load(),
		SpecSent:        n.cSpecSent.Load(),
		FinalSent:       n.cFinalSent.Load(),
		CascadeAborts:   n.cCascades.Load(),
		Revoked:         n.cRevoked.Load(),
		FinalViolations: n.finalViolations.Load(),
	}
	for c := range s.AbortsBy {
		s.AbortsBy[c] = n.cAborts[c].Load()
	}
	s.Cancelled = s.AbortsBy[profiler.CauseRevoke] + s.AbortsBy[profiler.CauseError]
	return s
}

// stats snapshots the node counters. The STM stats go through memStats
// (node lock) because crash recovery swaps the memory object.
func (n *node) stats() NodeStats {
	s := n.ledger()
	mem := n.memStats()
	s.Aborts, s.Conflicts = mem.Aborts, mem.Conflicts
	return s
}

// dispatcher serializes ordering decisions — event admission (assigning
// the per-node sequence = STM timestamp, the logged input-order decision),
// replacements, finalization, revocation, ACK bookkeeping and re-execution
// requests — and commits: after every item it takes commit turns until one
// commits nothing. Tasks commit strictly in arrival order once authorized:
// executed, input final, decisions stable, STM dependencies committed
// (paper §3: "gets the authorization to commit"; DESIGN.md §9.10).
func (n *node) dispatcher() {
	defer n.wg.Done()
	var run []event.Event // what the data lane's runs are popped into
	for {
		it, evs, ok := n.mailbox.Pop(run)
		if !ok {
			return
		}
		n.dispatch(it, evs)
		clear(evs) // keeps no payload reachable until the next run
		run = evs
		for !n.stopFlag.Load() && n.commitBatch(maxRun) {
		}
	}
}

// dispatch hands one popped item to its handler, a run of queued input
// events (evs) to admission, anything else by kind, and settles them. A
// commit notice has no handler: commit turns follow every item. Whatever
// the item changed — a slot returned, the cap retuned — held-back tasks
// get their chance after it.
func (n *node) dispatch(it mailItem, evs []event.Event) {
	defer n.settle(max(len(evs), it.weight()))
	switch {
	case it.commit:
	case len(evs) > 0:
		// The events left the data lane: return their credits so the
		// upstream sender may transmit the next ones.
		if in := it.msg.Input; in < len(n.granters) && n.granters[in] != nil {
			n.granters[in].grant(len(evs))
		}
		n.admitRun(it.msg.Input, evs)
	case len(it.inject) > 0:
		n.handleInject(it.inject)
	case it.reexec.t != nil:
		n.handleReexec(it.reexec)
	default:
		n.handleMessage(it.msg)
	}
	n.admitHeld()
}

// handleMessage normalises a control frame to its run at the edge (refsOf)
// and hands it to the one handler of its family.
func (n *node) handleMessage(m transport.Message) {
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
	case transport.MsgRedeliver:
		n.armDedup()
	}
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
	var up upstreamSender
	n.mu.Lock()
	if input < len(n.upstream) {
		up = n.upstream[input]
	}
	n.mu.Unlock()
	if up != nil {
		up.send(m)
	}
}
