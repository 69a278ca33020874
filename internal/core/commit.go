package core

import (
	"errors"
	"fmt"
	"time"

	"streammine/internal/event"
	"streammine/internal/metrics"
	"streammine/internal/profiler"
	"streammine/internal/stm"
	"streammine/internal/transport"
	"streammine/internal/wal"
)

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
	n.mailbox.PushReexec(cmdReexec{t: t, tx: tx})
}

// commitBatch is one turn of the committer: gather the run of consecutive
// ready head tasks (up to max), group-commit their transactions under one
// version-clock bump, and run the post-commit protocol with the FINALIZE,
// late-final and ACK deliveries coalesced into one frame per port or
// input. A lone ready task commits immediately (a longer run adds no
// latency, it only amortizes tasks that are already ready).
func (n *node) commitBatch(max int) {
	gen := n.commitSignalGen()
	run := n.commitRun[:0]
	txs := n.commitTxs[:0]
	defer func() {
		// Drop the pointers so committed tasks do not linger reachable
		// until the next gather overwrites their slots.
		clear(run[:cap(run)])
		clear(txs[:cap(txs)])
		n.commitRun, n.commitTxs = run[:0], txs[:0]
	}()
	// One n.mu hold gathers the candidates; each is then judged under its
	// own lock (t.mu comes before n.mu).
	n.mu.Lock()
	for i := 0; i < min(max, n.open.n); i++ {
		run = append(run, n.open.at(i))
	}
	n.mu.Unlock()
	for _, t := range run {
		t.mu.Lock()
		state := t.state
		ready := state == taskOpen && t.published && t.evFinal && t.pendingLogs == 0
		tx := t.tx
		t.mu.Unlock()
		if state == taskCancelled && len(txs) == 0 {
			n.cleanupHead(t)
			return
		}
		if !ready {
			break // a cancelled task waits until the ready prefix has committed
		}
		txs = append(txs, tx)
	}
	run = run[:len(txs)]
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
	n.open.pop()
	n.tasks.delete(t.ev.ID)
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
// frame carrying more than one item is cut from the committer's slabs,
// because receivers keep it.
type finFlush struct {
	finals [][]transport.FinalizeRef // by output port
	lates  [][]event.Event           // by output port
	acks   [][]transport.FinalizeRef // by input

	refs slab[transport.FinalizeRef]
	evs  slab[event.Event]
}

// addAt appends v to the accumulator at index i, growing the table to it.
func addAt[T any](runs [][]T, i int, v T) [][]T {
	run := slot(&runs, i)
	*run = append(*run, v)
	return runs
}

// drainRuns hands every non-empty accumulator to send and empties it. A run
// of one is handed over as it is (the frame takes the item by value), a
// longer one as a copy cut from owned.
func drainRuns[T any](acc [][]T, owned *slab[T], send func(i int, run []T)) {
	for i, run := range acc {
		if len(run) > 1 {
			frame := owned.take(len(run))
			copy(frame, run)
			send(i, frame)
		} else if len(run) == 1 {
			send(i, run)
		}
		clear(run) // drop the payload references
		acc[i] = run[:0]
	}
}

// flush delivers and empties the accumulators: late finals, then FINALIZE
// notices, per port; then ACKs per input upstream.
func (fb *finFlush) flush(n *node) {
	drainRuns(fb.lates, &fb.evs, func(port int, run []event.Event) { n.deliverToPort(port, eventFrame(run)) })
	drainRuns(fb.finals, &fb.refs, func(port int, run []transport.FinalizeRef) { n.deliverToPort(port, refFrame(run, false)) })
	drainRuns(fb.acks, &fb.refs, func(input int, run []transport.FinalizeRef) { n.sendUpstream(input, refFrame(run, true)) })
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
// ship last, one frame per port or input for the whole group. The table
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
				rec := t.addSent(outputID(n.opID, p.inputID, k), out, p.inTrace, true)
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
		n.committed.add(p.inputID)
		n.tasks.delete(p.inputID)
		n.open.pop()
		n.pendFin.delete(p.inputID)
		n.pendRevoke.delete(p.inputID)
		*slot(&n.lastCommitted, p.input) = inputPos{id: p.inputID, set: true}
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
