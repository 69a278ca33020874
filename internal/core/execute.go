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
// time (run), and hands each run back to the dispatcher (endRun). The
// attempt scratch is the worker's: a task is pushed on the executor queue
// only by the dispatcher, which has it back by then, so it has at most one
// attempt in flight and an attempt never observes another one's context.
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
// lowest-sequence task one at a time as every worker does, and hands the
// run back whole (endRun). It ends when the queue is empty, after maxRun
// pops, after an attempt that failed, so that a lost conflict is re-queued
// before younger tasks read around it, and before a re-execution (execute),
// so that no executed task — the commit head among them — is held
// unpublished behind a retry that conflicts with it.
func (n *node) run(t *task, ctx *procCtx) {
	for pops := 1; ; pops++ {
		if !n.execute(t, ctx) || pops == maxRun {
			break
		}
		if t = n.execQ.TryPop(); t == nil {
			break
		}
	}
	n.endRun(ctx)
}

// endRun hands what the worker's run executed back to the dispatcher, with
// one commit notice (mailbox.handBack).
func (n *node) endRun(ctx *procCtx) {
	if len(ctx.run) == 0 {
		return
	}
	n.mailbox.handBack(ctx.run)
	clear(ctx.run) // the scratch keeps no task reachable
	ctx.run = ctx.run[:0]
}

// execute runs one attempt of t, adds it to the worker's run and reports
// whether it completed; the dispatcher decides what that means (install).
// The task came with its throttle slot, kept across re-executions.
func (n *node) execute(t *task, ctx *procCtx) bool {
	retry := t.attempts > 0
	tx := &t.tx0 // the first attempt's, and no other's
	if retry {
		tx = n.mem.Begin(t.seq)
	} else {
		n.mem.BeginAt(tx, t.seq)
	}
	tx.OnAbort(t)
	t.tx = tx
	t.beganHead = t.seq <= n.nextCommit.Load()
	// The operator gets the event as it is: the payload is the dispatcher's
	// copy, and nothing writes it while a worker has the task.
	ev := t.ev
	ctx.begin(t, tx)
	if retry {
		// A re-execution starts a run of its own: what the run executed is
		// handed back first, so that it can commit while the retry runs.
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
		t.attemptNs = time.Since(attemptStart).Nanoseconds()
		n.cAttemptNs.Add(t.attemptNs)
	}
	a := ranAttempt{t: t, decisions: t.decisions, err: err}
	if err != nil {
		tx.Abort()
		ctx.run = append(ctx.run, a)
		return false
	}
	if ctx.truncateAt >= 0 && ctx.truncateAt < len(a.decisions) {
		a.decisions = a.decisions[:ctx.truncateAt]
	}
	if len(ctx.taken) > 0 { // the task's next sticky list, cut from the worker's slab
		decs := ctx.decided.take(len(a.decisions) + len(ctx.taken))
		copy(decs[copy(decs, a.decisions):], ctx.taken)
		a.decisions, a.taken = decs, len(ctx.taken)
	}
	t.setOuts(ctx.outs)
	n.cExecuted.Add(1)
	if tr := n.eng.tracer; tr != nil && tr.Keeps(ev.Trace) {
		tr.RecordTrace(n.spec.Name, ev.ID.String(), ev.Trace, metrics.PhaseExec,
			fmt.Sprintf("outs=%d", len(ctx.outs)))
	}
	ctx.run = append(ctx.run, a)
	return true
}

// installRuns takes back the runs the workers handed back and makes them
// effective in execution order: each attempt installed (install), the fresh
// decisions of those that opened ONE log append, which credits each record
// to its task once stable, and on a speculative node what opened published.
func (n *node) installRuns() {
	ran := n.mailbox.takeRuns(n.ran)
	taken := 0
	for i := range ran {
		taken += ran[i].taken
	}
	var recs []wal.Record
	var owners []*task // owners[j] is the task recs[j] is for
	if taken > 0 {
		recs, owners = n.admit.recs.take(taken)[:0], n.admit.owners.take(taken)[:0]
	}
	for i := range ran {
		a := &ran[i]
		if !n.install(a) {
			continue
		}
		for _, d := range a.decisions[len(a.decisions)-a.taken:] {
			recs = append(recs, wal.Record{Kind: d.kind, Operator: n.opID, Event: a.t.ev.ID, Value: d.value})
			owners = append(owners, a.t)
		}
	}
	if len(recs) > 0 {
		n.logRun(owners, recs)
	}
	if n.spec.Speculative {
		for i := range ran {
			n.publishOutputs(ran[i].t)
		}
	}
	clear(ran) // drop the tasks and their decision lists
	n.ran = ran[:0]
}

// install takes an attempt back and reports whether its task opened with
// it. Otherwise a task revoked while it ran drops it, an operator error
// fails the node and cancels the task, and an attempt that ran on content a
// replacement changed meanwhile, lost a conflict or was aborted by a
// cascade is aborted and re-queued, its outputs unpublished.
func (n *node) install(a *ranAttempt) bool {
	t := a.t
	t.attempts++
	ev, replaced := n.replaced[t]
	delete(n.replaced, t)
	if t.state == taskCancelled { // revoked while it ran
		t.tx.Abort()
		t.cancelledOut = false
		return false
	}
	t.state = taskOpen
	switch {
	case a.err != nil && !errors.Is(a.err, stm.ErrConflict):
		n.fail(fmt.Errorf("node %q event %s: %w", n.spec.Name, t.ev.ID, a.err))
		n.cancelTask(t, profiler.CauseError)
		return false
	case replaced:
		t.tx.Abort()
		n.abort(profiler.CauseReplace, len(t.sent) > 0, t.attemptNs, ev.ID, ev.Trace)
		n.causedBy(t.input, ev.ID.Source)
		t.ev = ev
		n.requeue(t)
		return false
	case a.err != nil:
		n.conflictRetry(t)
		return false
	case t.tx.Status() == stm.StatusAborted:
		n.requeue(t)
		return false
	}
	t.decisions = a.decisions
	t.pendingLogs.Add(int32(a.taken)) // one per record, each credited on its own
	return true
}

// requeue hands t back to the workers for another attempt. The task keeps
// its throttle slot across the retry, but the wasted attempt feeds the
// abort window, whatever aborted it.
func (n *node) requeue(t *task) {
	t.state = taskQueued
	t.tx = nil
	n.cReexec.Add(1)
	n.throttle.Observe(1, true)
	n.execQ.Push(t)
}

// computeTainted is the finality rule (DESIGN.md §6.1): the task's outputs
// leave the worker final iff its input is final, its decisions are stable,
// and nothing can still change what the attempt computed — it began as the
// oldest uncommitted task, or it read no operator state. An older task that
// has not even executed yet can still write state a younger one already
// read, failing that one's validation at commit time, so a state-reading
// attempt that began behind the commit head is speculative whatever its
// dependencies look like right now, even once it is the head.
func (n *node) computeTainted(t *task) bool {
	if !t.evFinal || t.pendingLogs.Load() > 0 {
		return true
	}
	return !t.beganHead && t.tx.ReadSetSize() > 0
}

// publishOutputs sends the current execution's outputs of an open task
// downstream, diffing against what was already sent: unchanged outputs are
// left alone, changed ones are re-sent as a higher version, vanished ones
// are revoked (paper §3.1). Only the dispatcher sends a task's outputs, so a
// send always carries the current version, and nothing follows its REVOKE.
func (n *node) publishOutputs(t *task) {
	if t.state != taskOpen {
		return
	}
	type sendOp struct {
		rec  *outRecord
		spec bool
	}
	var sendBuf [2]sendOp // both lists stay on the stack up to two entries
	var revokeBuf [2]*outRecord
	sends, revokes := sendBuf[:0], revokeBuf[:0]
	repeat := false // a send repeats an output whose final went out

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
			if rec.finalSent {
				// A previously-final output changed: the finality rule
				// (computeTainted) was wrong about this task. Count it and
				// prefer correct content over the finality promise; the
				// re-send repeats an output whose final went out.
				n.finalViolations.Add(1)
				rec.finalSent = false
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

	if repeat {
		n.redeliver()
	}
	for _, s := range sends {
		if s.spec {
			n.cSpecSent.Add(1)
			if m := n.eng.met; m != nil {
				if s.rec.specAt.IsZero() {
					s.rec.specAt = time.Now()
				}
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
		n.deliverToPort(s.rec.port, transport.Message{Type: transport.MsgEvent, Event: s.rec.toEvent(s.spec)})
	}
	for _, rec := range revokes {
		n.revokeRecord(rec)
	}
}
