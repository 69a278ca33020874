package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
// other mutex here — commitMu, errMu, rngMu, and the ones inside the
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

	mu    sync.Mutex
	tasks idTable[*task]
	// open holds the tasks admitted and not yet retired, oldest first.
	// Sequences are dense, so slot i is the task with seq nextSeq-open.n+i.
	open          ring[*task]
	nextSeq       int64
	committed     idSet // never pruned: DESIGN.md §9.4
	outBuf        idTable[*outRecord]
	outEmitSeq    uint64
	lastCommitted []inputPos // by input
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
	admit    admitScratch
	finHits  []finHit
	injected slab[outRecord] // handleInject's: a source run's output records

	// replay, when non-nil, holds the recovery-mode admission plan;
	// recoverDrop holds the IDs of logged events the restored snapshot
	// already covers, whose redeliveries must be dropped (both guarded
	// by mu).
	replay      *replayPlan
	recoverDrop idSet

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
	pendFin    idTable[event.Version]
	pendRevoke idTable[int]

	links    [][]link
	upstream []upstreamSender // by input; nil where nothing feeds it yet

	// Flow control (all nil/empty when unconfigured — see internal/flow).
	// granters return credits per input as events leave the mailbox;
	// inGates are the gates feeding this node (reset on recovery);
	// credLinks are credit-gated output links (quiescence accounting);
	// throttle caps open speculative tasks; admission rate-limits a
	// source node. granters and inGates are wired before start and
	// immutable afterwards; credLinks appends are wiring-time only.
	granters  []creditGranter // by input; nil where the edge has no window
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

	// healthLat is the per-node admission→commit latency HDR feeding
	// Engine.Health (nil unless Options.Health; a nil HDR is inert).
	healthLat *metrics.HDR

	cDispatched     atomic.Uint64
	cExecuted       atomic.Uint64
	cCommitted      atomic.Uint64
	cCancelled      atomic.Uint64
	cReexec         atomic.Uint64
	cSpecSent       atomic.Uint64
	cFinalSent      atomic.Uint64
	openTainted     atomic.Int64
	finalViolations atomic.Uint64
}

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
		eng:       eng,
		spec:      spec,
		opID:      opID,
		mem:       stm.NewMemory(capWords),
		log:       log,
		rng:       rng,
		mailbox:   newMailbox(),
		execQ:     newTaskQueue(),
		links:     make([][]link, spec.OutputPorts),
		upstream:  make([]upstreamSender, inputs),
		granters:  make([]creditGranter, inputs),
		healthLat: newHealthHDR(eng.opts.Health),
	}
	n.lastCommitted = make([]inputPos, inputs)
	if f := spec.Flow; f != nil {
		if f.MailboxCap > 0 {
			n.mailbox.SetDataCap(f.MailboxCap)
		}
		n.throttle = flow.NewSpecThrottle(f)
	}
	n.resetVolatile()
	n.commitCond = sync.NewCond(&n.commitMu)
	return n, nil
}

// resetVolatile (re)creates everything a crash loses except the operator
// memory: in-flight tasks, duplicate-suppression tables, output buffer,
// stashes, replay plan, the dispatcher's and the committer's slabs and
// scratch (a worker's go with its goroutine) and the sequence and commit
// cursors. Caller holds n.mu with the goroutines joined, or owns the node.
func (n *node) resetVolatile() {
	n.admit, n.fin, n.injected = admitScratch{}, finFlush{}, slab[outRecord]{}
	n.tasks = idTable[*task]{}
	n.open = ring[*task]{}
	n.committed, n.recoverDrop = idSet{}, idSet{}
	n.outBuf = idTable[*outRecord]{}
	clear(n.lastCommitted)
	n.pendFin = idTable[event.Version]{}
	n.pendRevoke = idTable[int]{}
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
		d, err := n.readDurable()
		if err == nil {
			err = n.restoreDurable(d)
		}
		if err != nil {
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
		Cancelled:       n.cCancelled.Load(),
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
	return n.open.n + int(n.retiring.Load())
}

// drain blocks until the node has no queued work, no open tasks, and no
// outputs parked behind credit gates.
func (n *node) drain() {
	for !n.stopFlag.Load() && !n.quiet() {
		time.Sleep(200 * time.Microsecond)
	}
}

// quiet reports whether the node is momentarily idle: nothing queued, no
// open tasks, no outputs parked behind credit gates.
func (n *node) quiet() bool {
	return n.mailbox.Len() == 0 && n.execQ.Len() == 0 && n.openCount() == 0 && n.creditQueued() == 0
}

// dispatcher serializes ordering decisions: event admission (assigning the
// per-node sequence = STM timestamp, the logged input-order decision),
// replacements, finalization, revocation, ACK bookkeeping and re-execution
// requests.
func (n *node) dispatcher() {
	defer n.wg.Done()
	for {
		it, ok := n.mailbox.Pop()
		if !ok {
			return
		}
		switch {
		case len(it.inject) > 0:
			n.handleInject(it.inject)
		case it.reexec.t != nil:
			n.handleReexec(it.reexec)
		default:
			n.handleMessage(it.msg)
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
		if m.Input < len(n.granters) && n.granters[m.Input] != nil {
			n.granters[m.Input].grant(len(evs))
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

// ackUpstream notifies the upstream feeding the given input that an event
// will never be requested again.
func (n *node) ackUpstream(input int, id event.ID) {
	n.sendUpstream(input, transport.Message{Type: transport.MsgAck, ID: id})
}
