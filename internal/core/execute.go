package core

import (
	"errors"
	"fmt"
	"time"

	"streammine/internal/metrics"
	"streammine/internal/stm"
	"streammine/internal/transport"
	"streammine/internal/wal"
)

// appendRecords submits the decision records of one execution of t to the
// log and wires the stability callback into the task.
func (n *node) appendRecords(t *task, recs []wal.Record) {
	_, err := n.log.Append(recs, func(err error) {
		if err != nil {
			n.fail(fmt.Errorf("decision log: %w", err))
			return
		}
		t.logDone(recs[len(recs)-1].LSN) // LSNs ascend within an append
		n.notifyCommitter()
	})
	if err != nil {
		n.fail(fmt.Errorf("submit decision log: %w", err))
		t.logDone(0)
	}
}

// worker executes queued tasks under speculative transactions. The attempt
// scratch is the worker's: a task has at most one attempt in flight
// (handleReexec never re-queues an executing task), so an attempt can never
// observe another one's context.
func (n *node) worker() {
	defer n.wg.Done()
	ctx := new(procCtx)
	for {
		t, ok := n.execQ.Pop()
		if !ok {
			return
		}
		n.runTask(t, ctx)
	}
}

func (n *node) runTask(t *task, ctx *procCtx) {
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
	tx := &t.tx0 // the first attempt's, and no other's
	if t.attempts == 0 {
		n.mem.BeginAt(tx, t.seq)
	} else {
		tx = n.mem.Begin(t.seq)
	}
	tx.OnAbort(t)
	t.tx = tx
	t.state = taskExecuting
	t.attempts++
	// The operator gets the event as it is: the payload is the dispatcher's
	// copy, and nothing writes it (a replacement swaps t.ev whole).
	ev := t.ev
	ctx.begin(t, tx)
	t.mu.Unlock()

	// Attempt CPU is only measured when profiling is on; the clock reads
	// bracket the operator call plus STM completion, the work a later
	// abort would discard.
	var attemptStart time.Time
	if n.prof != nil {
		attemptStart = time.Now()
	}
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
	t.setOuts(ctx.outs)
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

// computeTainted is the finality rule (DESIGN.md §6.1): the task's outputs
// leave the worker final iff its input is final, its decisions are stable,
// and nothing can still change what the attempt computed — it is the oldest
// uncommitted task, or it read no operator state. An older task that has
// not even executed yet can still write state a younger one already read,
// failing that one's validation at commit time, so a state-reading task
// behind the commit head is speculative whatever its dependencies look
// like right now. Caller holds t.mu.
func (n *node) computeTainted(t *task) bool {
	if !t.evFinal || t.pendingLogs > 0 {
		return true
	}
	return n.nextCommit.Load() < t.seq && t.tx.ReadSetSize() > 0
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
				// prefer correct content over the finality promise.
				n.finalViolations.Add(1)
				rec.finalSent.Store(false)
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
		// Stamped under t.mu, which the committer reads specAt under
		// (retireGroup).
		for _, s := range sends {
			if s.spec && s.rec.specAt.IsZero() {
				s.rec.specAt = time.Now()
			}
		}
	}
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
		// The record is read as late as possible, under the lock a later
		// attempt changes it under: a send that lost the race to that
		// attempt's then repeats its version instead of following it with a
		// stale one.
		t.mu.Lock()
		port, ev := s.rec.port, s.rec.toEvent(s.spec)
		t.mu.Unlock()
		n.deliverToPort(port, transport.Message{Type: transport.MsgEvent, Event: ev})
	}
	for _, rec := range revokes {
		n.revokeRecord(rec)
	}
	// Published only once delivered: the committer must not finalize an
	// output ahead of the event that carries it.
	t.mu.Lock()
	if t.tx == tx && t.state == taskOpen {
		t.published = true
	}
	t.mu.Unlock()
}
