package core

import (
	"errors"
	"fmt"
	"time"

	"streammine/internal/metrics"
	"streammine/internal/profiler"
	"streammine/internal/stm"
	"streammine/internal/transport"
	"streammine/internal/wal"
)

// worker executes queued tasks under speculative transactions, a run at a
// time (run). The attempt scratch and the run's bookkeeping are the
// worker's: a task has at most one attempt in flight (handleReexec never
// re-queues an executing task), so an attempt can never observe another
// one's context.
func (n *node) worker() {
	defer n.wg.Done()
	ctx := new(procCtx)
	for {
		t, ok := n.execQ.Pop()
		if !ok {
			return
		}
		n.run(t, ctx)
	}
}

// run executes t and then what is queued behind it, popping the
// lowest-sequence task one at a time as every worker does, and makes the
// run's executions effective together (endRun): one decision-log append, the
// tasks' publication in execution order and one commit notice. The run ends
// when the queue is empty or after maxRun pops, and execute ends it early
// before a re-execution, so that no executed task — the commit head among
// them — is held unpublished behind a retry that conflicts with it.
func (n *node) run(t *task, ctx *procCtx) {
	for pops := 1; ; pops++ {
		n.execute(t, ctx)
		if pops == maxRun {
			break
		}
		if t = n.execQ.TryPop(); t == nil {
			break
		}
	}
	n.endRun(ctx)
}

// endRun makes what the worker's run executed effective: the run's decision
// records are ONE append, which credits each record to its task once stable,
// a speculative node's tasks are published in execution order, and the
// dispatcher gets one commit notice.
func (n *node) endRun(ctx *procCtx) {
	r := &ctx.run
	if len(r.tasks) == 0 {
		return
	}
	if len(r.recs) > 0 {
		// The log's callback outlives the run: it gets copies cut from the
		// worker's slabs, and the scratch keeps no task reachable.
		recs, owners := r.recSlab.take(len(r.recs)), r.ownerSlab.take(len(r.owners))
		copy(recs, r.recs)
		copy(owners, r.owners)
		clear(r.owners)
		r.recs, r.owners = r.recs[:0], r.owners[:0]
		n.logRun(owners, recs)
	}
	if n.spec.Speculative {
		for _, t := range r.tasks {
			n.publishOutputs(t)
		}
	}
	clear(r.tasks)
	r.tasks = r.tasks[:0]
	n.mailbox.PushCommit()
}

// execute runs one attempt of t and adds its effects to the worker's run.
// The task came with its throttle slot (queueFresh), which it keeps across
// re-executions.
func (n *node) execute(t *task, ctx *procCtx) {
	t.mu.Lock()
	if t.state != taskQueued || t.tx != nil {
		// Cancelled, or begun by another worker.
		t.mu.Unlock()
		return
	}
	retry := t.attempts > 0
	tx := &t.tx0 // the first attempt's, and no other's
	if retry {
		tx = n.mem.Begin(t.seq)
	} else {
		n.mem.BeginAt(tx, t.seq)
	}
	tx.OnAbort(t)
	t.tx = tx
	t.state = taskExecuting
	t.attempts++
	t.beganHead = t.seq <= n.nextCommit.Load()
	// The operator gets the event as it is: the payload is the dispatcher's
	// copy, and nothing writes it (a replacement swaps t.ev whole).
	ev := t.ev
	ctx.begin(t, tx)
	t.mu.Unlock()
	if retry {
		// A re-execution starts a run of its own: what the run executed is
		// made effective first, so that it can commit while the retry runs.
		n.endRun(ctx)
	}

	// Attempt CPU is only measured when profiling is on; the clock reads
	// bracket the operator call plus STM completion, the work a later
	// abort would discard.
	var attemptStart time.Time
	if n.wit != nil {
		attemptStart = time.Now()
	}
	var err error
	if n.spec.Op != nil {
		err = n.spec.Op.Process(ctx, ev)
	}
	if err == nil {
		err = tx.Complete()
	}
	if n.wit != nil {
		ns := time.Since(attemptStart).Nanoseconds()
		n.cAttemptNs.Add(ns)
		t.mu.Lock()
		t.attemptNs = ns
		t.mu.Unlock()
	}
	if err != nil {
		if errors.Is(err, stm.ErrConflict) {
			t.mu.Lock()
			if t.state == taskExecuting {
				t.state = taskQueued
			}
			t.mu.Unlock()
			tx.Abort()
			n.conflictRetry(t, tx)
			return
		}
		n.fail(fmt.Errorf("node %q event %s: %w", n.spec.Name, ev.ID, err))
		tx.Abort()
		n.cancelTask(t, profiler.CauseError)
		n.mailbox.PushCommit() // a commit turn retires it once it is the head
		return
	}

	t.mu.Lock()
	if t.state != taskExecuting || t.tx != tx {
		t.mu.Unlock()
		tx.Abort()
		return
	}
	if tx.Status() == stm.StatusAborted {
		// Aborted after it completed — by a replacement, the attempt ran on
		// the old content (applyReplacement): hand the task back for its
		// re-execution instead of making it open.
		t.state = taskQueued
		t.mu.Unlock()
		n.mailbox.PushReexec(cmdReexec{t: t, tx: tx})
		return
	}
	t.state = taskOpen
	t.published = !n.spec.Speculative // speculative nodes publish at the run's end
	if ctx.truncateAt >= 0 && ctx.truncateAt < len(t.decisions) {
		t.decisions = t.decisions[:ctx.truncateAt]
	}
	if len(ctx.taken) > 0 { // the task's sticky list, cut from the worker's slab
		decs := ctx.decided.take(len(t.decisions) + len(ctx.taken))
		copy(decs[copy(decs, t.decisions):], ctx.taken)
		t.decisions = decs
	}
	t.setOuts(ctx.outs)
	t.pendingLogs += len(ctx.taken) // one per record, each credited on its own
	t.mu.Unlock()

	r := &ctx.run
	for _, d := range ctx.taken {
		r.recs = append(r.recs, wal.Record{Kind: d.kind, Operator: n.opID, Event: ev.ID, Value: d.value})
		r.owners = append(r.owners, t)
	}
	n.cExecuted.Add(1)
	if tr := n.eng.tracer; tr != nil && tr.Keeps(ev.Trace) {
		tr.RecordTrace(n.spec.Name, ev.ID.String(), ev.Trace, metrics.PhaseExec,
			fmt.Sprintf("outs=%d", len(ctx.outs)))
	}
	r.tasks = append(r.tasks, t)
}

// computeTainted is the finality rule (DESIGN.md §6.1): the task's outputs
// leave the worker final iff its input is final, its decisions are stable,
// and nothing can still change what the attempt computed — it began as the
// oldest uncommitted task, or it read no operator state. An older task that
// has not even executed yet can still write state a younger one already
// read, failing that one's validation at commit time, so a state-reading
// attempt that began behind the commit head is speculative whatever its
// dependencies look like right now, even once it is the head. Caller holds
// t.mu.
func (n *node) computeTainted(t *task) bool {
	if !t.evFinal || t.pendingLogs > 0 {
		return true
	}
	return !t.beganHead && t.tx.ReadSetSize() > 0
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
	var sendBuf [2]sendOp // both lists stay on the stack up to two entries
	var revokeBuf [2]*outRecord
	sends, revokes := sendBuf[:0], revokeBuf[:0]
	repeat := false // a send repeats an output whose final went out

	t.mu.Lock()
	if t.state != taskOpen {
		t.mu.Unlock()
		return
	}
	spec := n.computeTainted(t)
	tx := t.tx
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
				// A previously-final output changed: the finality rule
				// (computeTainted) was wrong about this task. Count it and
				// prefer correct content over the finality promise; the
				// re-send repeats an output whose final went out.
				n.finalViolations.Add(1)
				rec.finalSent.Store(false)
				repeat = true
			}
			rec.version++
			rec.port, rec.ts, rec.key, rec.payload = out.port, out.ts, out.key, out.payload
			sends = append(sends, sendOp{rec: rec, spec: true})
			continue
		}
		rec := t.addSent(outputID(n.opID, inputID, k), out, inTrace, !spec)
		sends = append(sends, sendOp{rec: rec, spec: spec})
	}
	if len(t.outs) < len(t.sent) {
		revokes = append(revokes, t.sent[len(t.outs):]...)
		clear(t.sent[len(t.outs):])
		t.sent = t.sent[:len(t.outs)]
	}
	if n.eng.met != nil {
		// Stamped under t.mu, which a commit turn reads specAt under
		// (retireGroup).
		for _, s := range sends {
			if s.spec && s.rec.specAt.IsZero() {
				s.rec.specAt = time.Now()
			}
		}
	}
	t.mu.Unlock()

	if repeat {
		n.redeliver()
	}
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
		// Read and delivered under the lock that a later attempt, the commit and
		// a cancellation change it under: a late send repeats the current
		// version, goes final once that is finalized, and never follows a REVOKE.
		// A speculative send going final here was finalized meanwhile by a later
		// attempt's commit, which downstream may have committed: it says so first.
		t.mu.Lock()
		if t.state != taskCancelled {
			final := s.rec.finalSent.Load()
			if s.spec && final {
				n.redeliver()
			}
			n.deliverToPort(s.rec.port, transport.Message{Type: transport.MsgEvent, Event: s.rec.toEvent(s.spec && !final)})
		}
		t.mu.Unlock()
	}
	for _, rec := range revokes {
		n.revokeRecord(rec)
	}
	// Published only once delivered: a commit turn must not finalize an
	// output ahead of the event that carries it.
	t.mu.Lock()
	if t.tx == tx && t.state == taskOpen {
		t.published = true
	}
	t.mu.Unlock()
}
