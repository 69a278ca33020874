package core

import (
	"fmt"
	"sync"
	"time"
	"unsafe"

	"streammine/internal/event"
	"streammine/internal/stm"
	"streammine/internal/wal"
)

// decision is one logged non-deterministic value taken while processing an
// event. Decisions are *sticky*: a rollback re-executes the task with the
// same decisions replayed in order (fresh draws happen only past the end
// of the list), which makes re-execution deterministic modulo state reads
// — the property behind the paper's "re-execution produces the same
// outputs unless a read value actually changed".
type decision struct {
	kind  wal.Kind
	value uint64
}

// taskState tracks a task through its lifecycle.
type taskState int32

const (
	taskQueued taskState = iota + 1
	taskExecuting
	taskOpen // executed, transaction open, awaiting commit authorization
	taskCommitted
	taskCancelled
)

// task is the processing of one input event by one node: the unit of
// speculation. Fields below mu are protected by it; the ones above are
// immutable after creation.
type task struct {
	n     *node
	seq   int64 // per-node arrival order; also the STM timestamp
	input int
	// admitted stamps admission when metrics are enabled (zero
	// otherwise); retireGroup derives the finalize latency from it.
	admitted time.Time
	// nextLogged chains, in admission order, the tasks of a run whose
	// admission appended an input-order record: admitRun's until the append is
	// submitted, then creditInputs', which pairs records with it and undoes it.
	nextLogged *task

	mu       sync.Mutex
	state    taskState
	ev       event.Event // current version of the input event
	tx       *stm.Tx
	attempts int

	// decisions and cursor implement sticky decision replay.
	decisions []decision
	cursor    int

	attemptNs   int64 // profiler: CPU-ns of the last completed attempt
	pendingLogs int   // async log appends not yet stable
	maxLSN      wal.LSN
	outs        []pendingOut // outputs of the current execution
	sent        []*outRecord // outputs already sent downstream, by position

	// The flags share a word: eight tasks just fit a size class (maxBlockTasks).
	evFinal      bool
	published    bool // outputs of the current execution handed downstream
	tainted      bool // last published speculative state
	throttleHeld bool // holds a speculation-throttle slot

	// The task owns what it published: the first output, its record and
	// its sent slot live here, and outs and sent spill to the heap only
	// past one output. The record keeps the task (and so its run's block)
	// reachable until it is ACKed.
	out0  [1]pendingOut
	sent0 [1]*outRecord
	rec0  outRecord

	// tx0 is the first attempt's transaction, begun in place by runTask
	// (attempts == 0 says it has not been) and never again: another task's
	// reader keeps the pointer, and with it the block, past the attempt's
	// end, so a re-execution buys its own from the heap.
	tx0 stm.Tx
}

// maxBlockTasks is how many tasks admitRun puts in one block: as many as
// keep the block, with the allocator's 8-byte header, a small object
// (32 KiB) — a larger one is allocated and swept span by span. A run of
// eight is 9,664 bytes, in the 9,728-byte size class.
const maxBlockTasks = (32<<10 - 8) / int(unsafe.Sizeof(task{}))

// TxAborted implements stm.AbortHook: the dispatcher re-executes the task.
func (t *task) TxAborted(tx *stm.Tx) {
	t.n.mailbox.PushReexec(cmdReexec{t: t, tx: tx})
}

// setOuts copies an attempt's outputs out of the worker's scratch. Caller
// holds t.mu.
func (t *task) setOuts(outs []pendingOut) {
	if t.outs == nil {
		t.outs = t.out0[:0]
	}
	t.outs = append(t.outs[:0], outs...)
}

// addSent creates, buffers (n.bufferOutput) and appends the record of the
// task's next unsent output. Caller holds t.mu.
func (t *task) addSent(id event.ID, out pendingOut, trace uint64, final bool) *outRecord {
	rec := &t.rec0
	if rec.seq != 0 { // emission sequences start at 1: rec0 has been used
		rec = new(outRecord) // and is never reused, a reader may still hold it
	}
	if t.sent == nil {
		t.sent = t.sent0[:0]
	}
	t.n.mu.Lock()
	t.n.bufferOutput(rec, id, out, trace, final)
	t.n.mu.Unlock()
	t.sent = append(t.sent, rec)
	return rec
}

// logDone settles one pending log append: lsn is the highest LSN it made
// stable, or zero when it could not be submitted.
func (t *task) logDone(lsn wal.LSN) {
	t.mu.Lock()
	t.pendingLogs--
	if lsn > t.maxLSN {
		t.maxLSN = lsn
	}
	t.mu.Unlock()
}

// pendingOut is one Emit call captured during execution.
type pendingOut struct {
	port    int
	ts      int64
	key     uint64
	payload []byte
}

// procCtx implements operator.Context for one execution attempt. Each
// worker goroutine owns one and resets it per attempt (begin), so taken and
// outs keep their capacity; nothing in it outlives the attempt but the
// payloads cut from its slab, which belong to the outputs they were emitted as.
type procCtx struct {
	t  *task
	tx *stm.Tx
	ts int64 // the input event's application timestamp

	// decisions is the sticky decision list snapshot for this attempt;
	// replayCursor walks it. Decisions taken past its end (or after a
	// control-flow divergence truncates it) land in taken.
	decisions    []decision
	replayCursor int
	truncateAt   int
	taken        []decision
	outs         []pendingOut
	payloads     slab[byte]
}

// begin resets the scratch for an attempt of t under tx. Caller holds t.mu.
func (c *procCtx) begin(t *task, tx *stm.Tx) {
	clear(c.outs) // drop the previous attempt's payloads
	*c = procCtx{
		t: t, tx: tx, ts: t.ev.Timestamp,
		decisions:  t.decisions, // immutable during execution
		truncateAt: -1, taken: c.taken[:0], outs: c.outs[:0], payloads: c.payloads,
	}
}

// OperatorID implements operator.Context.
func (c *procCtx) OperatorID() uint32 { return uint32(c.t.n.spec.ID) }

// InputIndex implements operator.Context.
func (c *procCtx) InputIndex() int { return c.t.input }

// Tx implements operator.Context.
func (c *procCtx) Tx() *stm.Tx { return c.tx }

// nextDecision replays a sticky decision of the right kind or takes (and
// records) a fresh one. A kind mismatch means the re-execution's control
// flow diverged (a read value changed); the stale tail is truncated and
// fresh decisions are taken — the same rule applies during recovery
// replay, keeping both paths deterministic.
func (c *procCtx) nextDecision(kind wal.Kind, fresh func() uint64) (uint64, error) {
	if c.truncateAt < 0 && c.replayCursor < len(c.decisions) {
		d := c.decisions[c.replayCursor]
		if d.kind == kind {
			c.replayCursor++
			return d.value, nil
		}
		c.truncateAt = c.replayCursor
	}
	v := fresh()
	c.taken = append(c.taken, decision{kind: kind, value: v})
	return v, nil
}

// Random implements operator.Context: a logged PRNG draw.
func (c *procCtx) Random() (uint64, error) {
	n := c.t.n
	return c.nextDecision(wal.KindRandom, func() uint64 {
		n.rngMu.Lock()
		defer n.rngMu.Unlock()
		return n.rng.Uint64()
	})
}

// Now implements operator.Context: a logged clock read.
func (c *procCtx) Now() (int64, error) {
	v, err := c.nextDecision(wal.KindTime, func() uint64 {
		return uint64(c.t.n.eng.opts.Clock.Now())
	})
	return int64(v), err
}

// Emit implements operator.Context.
func (c *procCtx) Emit(key uint64, payload []byte) error {
	return c.EmitTo(0, key, payload)
}

// EmitTo implements operator.Context.
func (c *procCtx) EmitTo(port int, key uint64, payload []byte) error {
	if port < 0 || port >= c.t.n.spec.OutputPorts {
		return fmt.Errorf("core: node %q has no output port %d", c.t.n.spec.Name, port)
	}
	c.outs = append(c.outs, pendingOut{port: port, ts: c.ts, key: key, payload: payload})
	return nil
}

// EmitAt implements operator.Context.
func (c *procCtx) EmitAt(ts int64, key uint64, payload []byte) error {
	c.outs = append(c.outs, pendingOut{ts: ts, key: key, payload: payload})
	return nil
}

// Payload implements operator.Context.
func (c *procCtx) Payload(n int) []byte { return c.payloads.take(n) }

// outputID derives a deterministic output event ID from the node, the
// consumed input event and the output position — stable across rollbacks,
// re-executions and recovery replay, so downstream duplicate suppression
// works by ID (paper §2.2: replayed duplicates carry the same ids).
func outputID(nodeID uint32, in event.ID, position int) event.ID {
	z := uint64(in.Source)<<32 ^ uint64(in.Seq) + 0x9E3779B97F4A7C15*uint64(position+1)
	z ^= uint64(nodeID) << 17
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return event.ID{Source: event.SourceID(nodeID), Seq: event.Seq(z ^ (z >> 31))}
}
