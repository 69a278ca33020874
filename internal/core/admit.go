package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"streammine/internal/event"
	"streammine/internal/metrics"
	"streammine/internal/profiler"
	"streammine/internal/transport"
	"streammine/internal/wal"
)

// admitScratch is admitRun's reusable working set (see node.admit), and the
// slabs it cuts what a run's tasks keep from: each detached payload, and the
// run's input-order records.
type admitScratch struct {
	planned  []plannedEvent
	fresh    []*task
	deferred []deferredAdmit

	payloads slab[byte]
	recs     slab[wal.Record]
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
	// The run's tasks share one allocation, the largest a run makes: it is
	// made before taking the lock that the workers and the committer wait for.
	block := make([]task, 0, min(len(evs), maxBlockTasks))
	n.mu.Lock()
	planned := n.planRun(a.planned[:0], input, evs)
	// The committed set is far larger than any cache, so every lookup is a
	// memory access: do the run's lookups back to back, where they overlap,
	// rather than each behind the admission of the event before.
	for i := range planned {
		planned[i].dup = n.committed.has(planned[i].ev.ID)
	}
	var recs []wal.Record
	var logged *task // the chain creditInputs walks, and where it grows
	link := &logged
	for i := range planned {
		pe := &planned[i]
		ev := pe.ev
		id := ev.ID
		if pe.dup || n.recoverDrop.has(id) {
			// Precise recovery: a replayed duplicate of a committed event
			// is byte-identical and silently dropped, and so is a
			// redelivery of an event the restored snapshot already covers
			// (its covering mark never became stable). Re-ACK so upstream
			// prunes — except a commit whose ACK waits in sinceCkpt for a
			// stable checkpoint mark: upstream holds the only copy a
			// recovery could replay.
			if !pe.dup {
				n.recStats.replayDrops++
			} else if slices.ContainsFunc(n.sinceCkpt, func(a ackTarget) bool { return a.id == id }) {
				continue
			}
			deferred = append(deferred, deferredAdmit{input: pe.input, ev: ev})
			continue
		}
		if t, ok := n.tasks.get(id); ok {
			deferred = append(deferred, deferredAdmit{t: t, ev: ev})
			continue
		}
		// Absorb control-lane overtaking: a REVOKE processed before this
		// event cleared the data lane kills exactly this incarnation; an
		// early FINALIZE for this version marks it final on arrival.
		// (Stashes are written and consumed only on the dispatcher.)
		if n.takePendRevoke(&ev) {
			continue
		}
		n.takePendFin(&ev)
		if len(ev.Payload) > 0 {
			// Payloads often alias one wire frame: the task keeps a copy.
			payload := a.payloads.take(len(ev.Payload))
			copy(payload, ev.Payload)
			ev.Payload = payload
		}
		if len(block) == cap(block) {
			block = make([]task, 0, min(len(planned)-i, maxBlockTasks))
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
		n.tasks.put(id, t)
		n.open.push(t)
		if stateful && !pe.logged {
			// The interleaving order across inputs is a non-deterministic
			// decision for stateful operators: log it before execution can
			// externalize anything that depends on it (replayed events are
			// already logged). The task is unpublished until n.mu is
			// released, so its pendingLogs needs no t.mu.
			if recs == nil {
				recs = a.recs.take(len(planned) - i)[:0]
			}
			*link, link = t, &t.nextLogged
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
	n.eng.inflight.add(len(fresh)) // until retired, which needs the workers they go to below
	// The append goes first: its stability is on every task's path to
	// commit, so the log works on it while the workers execute.
	if len(recs) > 0 {
		n.logInputs(logged, recs)
	}
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
			n.sendUpstream(d.input, transport.Message{Type: transport.MsgAck, ID: d.ev.ID})
		}
	}
	// Drop what the scratch references (payloads, decisions, tasks).
	clear(planned)
	clear(fresh)
	clear(deferred)
	a.planned, a.fresh, a.deferred = planned[:0], fresh[:0], deferred[:0]
}

// takePendRevoke reports whether an early REVOKE stashed for ev's ID drops
// it, consuming the stash at the version it names. Caller holds n.mu.
func (n *node) takePendRevoke(ev *event.Event) bool {
	vs, ok := n.pendRevoke.get(ev.ID)
	if ok && ev.Version >= vs[0] {
		n.pendRevoke.delete(ev.ID)
		if len(vs) > 1 {
			n.pendRevoke.put(ev.ID, vs[1:])
		}
	}
	return ok
}

// takePendFin consumes an early FINALIZE stashed for ev's ID unless it is
// for a later version, marking ev final when it is for exactly this one.
// Caller holds n.mu.
func (n *node) takePendFin(ev *event.Event) {
	if v, ok := n.pendFin.get(ev.ID); ok && v <= ev.Version {
		n.pendFin.delete(ev.ID)
		if v == ev.Version {
			ev.Speculative = false
		}
	}
}

// logInputs submits a run's input-order records as one append; a single
// Append preserves the admission-order LSN sequence exactly as per-event
// appends would have produced it. logged is the first of the tasks the
// records are for.
func (n *node) logInputs(logged *task, recs []wal.Record) {
	_, err := n.log.Append(recs, func(err error) {
		if err != nil {
			n.fail(fmt.Errorf("decision log: %w", err))
			return
		}
		creditInputs(logged, recs)
		n.notifyCommitter()
	})
	if err != nil {
		n.fail(fmt.Errorf("submit decision log: %w", err))
		creditInputs(logged, nil)
	}
}

// creditInputs settles the pending input-record append of a run's tasks:
// record j belongs to the j-th task of the chain that starts at t, whichever
// blocks the run's tasks are in. recs is nil when the append could not be
// submitted. A credited task is unlinked, so that it keeps no other block
// reachable.
func creditInputs(t *task, recs []wal.Record) {
	for j := 0; t != nil; j++ {
		var lsn wal.LSN
		if recs != nil {
			lsn = recs[j].LSN
		}
		next := t.nextLogged
		t.nextLogged = nil
		t.logDone(lsn)
		t = next
	}
}

// applyReplacement updates a task's input event in place. Identical
// content only upgrades finality; changed content rolls the task back.
func (n *node) applyReplacement(t *task, ev event.Event) {
	// Consume control-lane stashes targeting this incarnation before the
	// normal replacement logic, so an early FINALIZE/REVOKE lands exactly
	// as if it had arrived in order.
	n.mu.Lock()
	revoked := n.takePendRevoke(&ev)
	if !revoked {
		n.takePendFin(&ev)
	}
	n.mu.Unlock()
	if revoked {
		n.eng.causedBy(ev.ID.Source)
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
	if st == taskOpen {
		// What the task executed and published is of the old content. It
		// leaves the open state here, under the lock hold that may make its
		// input final, so that the committer cannot commit it, nor a late
		// publishOutputs publish it, before the abort below re-queues it.
		t.state = taskQueued
	}
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
			tx.Abort()
			n.mailbox.PushReexec(cmdReexec{t: t, tx: tx}) // OnAbort's is lost if tx aborted while the task executed
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
// gate); one for a newer version, or for a cancelled task, is ahead of the
// replacement or re-emission queued behind it. All are stashed in pendFin,
// and admission applies them on arrival.
func (n *node) finalizeRun(refs []transport.FinalizeRef) {
	hits := n.finHits[:0]
	defer func() {
		clear(hits[:cap(hits)])
		n.finHits = hits[:0]
	}()
	n.mu.Lock()
	for _, f := range refs {
		if t, ok := n.tasks.get(f.ID); ok {
			hits = append(hits, finHit{t, f.Version})
		} else if !n.committed.has(f.ID) {
			n.pendFin.put(f.ID, f.Version)
		}
	}
	n.mu.Unlock()
	finalized := false
	for _, h := range hits {
		t := h.t
		t.mu.Lock()
		switch {
		case t.state != taskCancelled && t.ev.Version == h.ver && !t.evFinal:
			t.evFinal = true
			t.ev.Speculative = false
			finalized = true
		case t.state == taskCancelled || h.ver > t.ev.Version:
			n.mu.Lock()
			if !n.committed.has(t.ev.ID) {
				n.pendFin.put(t.ev.ID, h.ver)
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
	t, ok := n.tasks.get(m.ID)
	n.mu.Unlock()
	early := !ok
	if ok {
		t.mu.Lock()
		early = t.state == taskCancelled || t.ev.Version < m.Version
		t.mu.Unlock()
	}
	if early { // it overtook events of the incarnation it names: stash it
		n.mu.Lock()
		if !n.committed.has(m.ID) {
			vs, _ := n.pendRevoke.get(m.ID)
			n.pendRevoke.put(m.ID, append(vs, m.Version))
		}
		n.mu.Unlock()
	}
	if ok {
		// The revoker (the event's source operator) caused whatever work this
		// cancellation wastes; charge it on the caused-by side of the ledger.
		n.eng.causedBy(m.ID.Source)
		n.cancelTask(t, "revoke")
	}
}

// cancelTask aborts a task and frees its input ID, so that a re-emission
// arriving before the committer retires the task is admitted as a task of
// its own; cause ("revoke" or "error") feeds the core_aborts_total metric
// and the abort trace span.
func (n *node) cancelTask(t *task, cause string) {
	t.mu.Lock()
	if t.state == taskCommitted || t.state == taskCancelled {
		t.mu.Unlock()
		return
	}
	t.state = taskCancelled
	n.cCancelled.Add(1)
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
	n.mu.Lock()
	n.forgetTask(t)
	n.mu.Unlock()
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
	n.outBuf.delete(rec.id)
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
		if rec, ok := n.outBuf.get(f.ID); ok {
			rec.pendingAcks--
			if rec.pendingAcks <= 0 {
				n.outBuf.delete(f.ID)
			}
		}
	}
	n.mu.Unlock()
}

// handleReplay re-sends every unacknowledged buffered output, oldest
// first, with its current speculation state. Nodes that already saw an
// event drop it as a duplicate (and re-ACK).
func (n *node) handleReplay() {
	recs := n.bufferedOutputs()
	if m := n.eng.met; m != nil {
		m.replays.Inc()
		m.replayed.Add(uint64(len(recs)))
	}
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

// bufferedOutputs lists the output buffer oldest first, so that downstream
// admission order approximates the original when it is re-sent.
func (n *node) bufferedOutputs() []*outRecord {
	n.mu.Lock()
	recs := make([]*outRecord, 0, n.outBuf.len())
	n.outBuf.each(func(_ event.ID, r *outRecord) { recs = append(recs, r) })
	n.mu.Unlock()
	slices.SortFunc(recs, func(a, b *outRecord) int { return cmp.Compare(a.seq, b.seq) })
	return recs
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
// final, and is ACKed and pruned individually; the run's records are cut
// from the dispatcher's slab.
func (n *node) handleInject(evs []event.Event) {
	recs := n.injected.take(len(evs))
	n.mu.Lock()
	for i, ev := range evs {
		n.bufferOutput(&recs[i], ev.ID, pendingOut{ts: ev.Timestamp, key: ev.Key, payload: ev.Payload}, ev.Trace, true)
	}
	n.mu.Unlock()
	n.cFinalSent.Add(uint64(len(evs)))
	if m := n.eng.met; m != nil {
		m.batchSourceBatches.Inc()
		m.batchSourceEvents.Add(uint64(len(evs)))
	}
	if tr := n.eng.tracer; tr != nil {
		for _, ev := range evs {
			tr.RecordTrace(n.spec.Name, ev.ID.String(), ev.Trace, metrics.PhaseIngress, "source")
		}
	}
	n.deliverToPort(0, eventFrame(evs))
}

// bufferOutput fills rec, the output-buffer record of one output event
// sent final or speculative, and retains it for replay while any buffered
// link still has to ACK it. Caller holds n.mu.
func (n *node) bufferOutput(rec *outRecord, id event.ID, out pendingOut, trace uint64, final bool) {
	n.outEmitSeq++
	*rec = outRecord{
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
		n.outBuf.put(id, rec)
	}
}
