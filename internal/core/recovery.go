package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"streammine/internal/checkpoint"
	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/stm"
	"streammine/internal/transport"
	"streammine/internal/wal"
)

// Crash simulates a fail-stop crash of one node: its goroutines stop and
// every piece of volatile state — operator memory, in-flight tasks, input
// queues, output buffers, duplicate-suppression tables — is discarded.
// Only what the paper assumes survives a crash remains, and none of it is
// in the node: the stable decision log on the pool's disks and the
// checkpoint store.
//
// Source nodes cannot crash (they are driven by the harness, which owns
// their durability).
func (e *Engine) Crash(id graph.NodeID) error {
	n, err := e.node(id)
	if err != nil {
		return err
	}
	if n.spec.Op == nil {
		return fmt.Errorf("core: node %q is a source; crash not supported", n.spec.Name)
	}
	n.crash()
	return nil
}

// Recover restarts a crashed node: deterministic state re-allocation, the
// latest checkpoint image (if any), a replay plan built from the stable
// decision log as Options.LogScanner reads it back (input order + logged
// decisions), and replay requests to every upstream node (paper §2.2's
// recovery protocol). Without a scanner it returns ErrNoLogScanner. A
// Recover that fails reading the log or the checkpoint leaves the node
// crashed and can be called again.
//
// Stateful nodes must run with CheckpointEvery > 0 to be recoverable:
// without checkpoints they acknowledge events at commit, so upstream
// buffers no longer hold the events needed to rebuild their state.
func (e *Engine) Recover(id graph.NodeID) error {
	n, err := e.node(id)
	if err != nil {
		return err
	}
	return n.recover()
}

// crash tears the node down at the instant and wipes volatile state.
func (n *node) crash() {
	n.stopFlag.Store(true)
	// Both queues drop what they hold: the dispatcher admits and logs
	// nothing more, and a worker ends its run at the task it is executing,
	// whose hand-back the closed mailbox drops. A crash settles what it
	// drops.
	n.settle(n.mailbox.Close())
	n.execQ.Close()
	n.wg.Wait()

	// Abort open transactions so no downstream STM chains dangle. (All
	// state dies with the memory anyway; this is bookkeeping hygiene.)
	n.mu.Lock()
	n.settle(n.open.n) // the tasks die, queued or executed
	for i := 0; i < n.open.n; i++ {
		if tx := n.open.at(i).tx; tx != nil {
			tx.Abort()
		}
	}
	n.resetVolatile()
	n.mem = stm.NewMemory(n.mem.Capacity())
	// The fresh memory's witnesses land in the node's ring too; recover()
	// re-runs Op.Init, repopulating the address map Waste names them by.
	n.watchMemory()
	n.mu.Unlock()
}

// replayPlan drives recovery-mode dispatch: logged events are admitted in
// logged order with their logged decisions; unlogged events (the tail that
// was in flight at the crash) follow afterwards in arrival order. Once the
// plan is done it still answers, for the incarnation's life, which events
// the restored snapshot covers.
//
// The plan is one index over arrays. at maps an event to its position in
// admission order: every logged input, then what a source upstream will
// re-send (planSourceReplay). Positions below covered are the restored
// snapshot's, those below logged have an input record, and pos is the next
// to admit. What the plan keeps per position it keeps from covered on, at
// the position minus covered.
type replayPlan struct {
	at      idTable[int32]
	covered int
	logged  int
	pos     int
	lsns    []wal.LSN      // an event's highest logged LSN, below logged
	decs    [][]decision   // its logged decisions, below logged
	held    []plannedEvent // what arrived ahead of its position
	isHeld  []bool
	tail    []plannedEvent // unplanned arrivals, admitted once the plan completes
	done    bool
}

// active reports whether admission still goes through the plan.
func (p *replayPlan) active() bool { return p != nil && !p.done }

// end is one past the last planned position.
func (p *replayPlan) end() int { return p.covered + len(p.held) }

// covers reports whether the restored snapshot covers id. Its redeliveries
// must be dropped (and re-ACKed): the covering mark may never have become
// stable, in which case upstream was never told to prune them (paper §2.2:
// replay "starting at the last logged messages from each source").
func (p *replayPlan) covers(id event.ID) bool {
	if p == nil || p.covered == 0 {
		return false
	}
	at, ok := p.at.get(id)
	return ok && int(at) < p.covered
}

// finish leaves recovery mode; only the index stays.
func (p *replayPlan) finish() {
	p.done = true
	p.lsns, p.decs, p.held, p.isHeld, p.tail = nil, nil, nil, nil, nil
}

// buildReplayPlan digests this node's stable decision records as
// Options.LogScanner reads them back; it writes nothing to the node.
//
// lastByInput holds the restored snapshot's per-input last-committed
// event IDs. Because commits are issued strictly in admission order, the
// snapshot reflects exactly the admission-order *prefix* of logged
// inputs ending at the latest of those IDs: that prefix becomes the
// covered set (redeliveries of its events must be dropped — their
// effects are already in the restored state, and output IDs are hashes,
// so no sequence-number watermark can identify them). Replay starts
// right after the prefix. Decision records are attached by
// event identity, not by LSN position: an event uncommitted at
// checkpoint time can have decision LSNs below the snapshot's covered
// LSN, and replaying it with fresh decisions would break determinism.
func (n *node) buildReplayPlan(d *durableState, lastByInput map[int]event.ID) error {
	stable, err := n.eng.opts.LogScanner()
	if err != nil {
		return fmt.Errorf("scan decision log: %w", err)
	}
	// This operator's decision records, sorted by LSN below: a scan is in
	// write order per disk, not in log order. Checkpoint marks are left
	// out but nothing is cut at them: the snapshot-covered prefix is what
	// identifies covered redeliveries (a crash can race the post-mark
	// ACKs, leaving upstream free to re-send covered events).
	var recs []wal.Record
	inputs := 0
	for _, r := range stable {
		// Highest LSN of the whole scan, all operators and marks included:
		// a fresh Log over reopened storage must continue the sequence.
		if r.LSN > d.maxSeen {
			d.maxSeen = r.LSN
		}
		if r.Operator == n.opID && r.Kind != wal.KindCheckpointMark {
			recs = append(recs, r)
			if r.Kind == wal.KindInput {
				inputs++
			}
		}
	}
	slices.SortFunc(recs, func(a, b wal.Record) int { return cmp.Compare(a.LSN, b.LSN) })
	d.stats.logRecords = int64(len(recs))

	// Admission order of every logged input: an event's first record
	// places it.
	plan := &replayPlan{}
	plan.at.reserve(inputs)
	for _, r := range recs {
		if r.Kind != wal.KindInput {
			continue
		}
		if _, ok := plan.at.get(r.Event); !ok {
			plan.at.put(r.Event, int32(plan.logged))
			plan.logged++
		}
	}
	for _, id := range lastByInput {
		if p, ok := plan.at.get(id); ok && int(p) >= plan.covered {
			plan.covered = int(p) + 1
		}
	}
	plan.pos = plan.covered
	k := plan.logged - plan.covered
	plan.lsns, plan.decs = make([]wal.LSN, k), make([][]decision, k)
	plan.held, plan.isHeld = make([]plannedEvent, k), make([]bool, k)
	decided := false
	for _, r := range recs {
		isDecision := r.Kind == wal.KindRandom || r.Kind == wal.KindTime
		p, ok := plan.at.get(r.Event)
		if !ok {
			decided = decided || isDecision
			continue
		}
		if int(p) < plan.covered {
			continue
		}
		i := int(p) - plan.covered
		if isDecision {
			plan.decs[i] = append(plan.decs[i], decision{kind: r.Kind, value: r.Value})
		}
		plan.lsns[i] = max(plan.lsns[i], r.LSN)
	}
	// A decision record with no input record (a stateless operator's)
	// attaches to no event, but keeps the plan active until the first
	// arrival.
	plan.done = k == 0 && !decided
	if plan.logged > 0 || !plan.done {
		d.plan = plan // else nothing logged: plain restart
	}
	return nil
}

// durableState is what a node read back from stable storage, held apart
// from the node until all of it is there.
type durableState struct {
	snap    *checkpoint.Snapshot // nil: no checkpoint yet
	plan    *replayPlan          // nil: nothing logged
	maxSeen wal.LSN
	stats   nodeRecoveryStats // restore start, records scanned
}

// readDurable reads the latest checkpoint (if any) and the stable decision
// log and builds the replay plan. Every read that can fail on I/O happens
// here, before anything is written to the node, so a failed recovery
// leaves the node as crash left it and can be retried. With restoreDurable
// it is the common core of crash recovery and restore-on-start (cluster
// partition reassignment); over an empty store the node starts from
// scratch.
func (n *node) readDurable() (*durableState, error) {
	if n.eng.opts.LogScanner == nil {
		return nil, ErrNoLogScanner
	}
	d := &durableState{stats: nodeRecoveryStats{restoreStartNs: time.Now().UnixNano()}}
	var lastByInput map[int]event.ID
	switch snap, err := n.eng.store.Latest(n.opID); {
	case err == nil:
		d.snap, lastByInput = snap, snap.InputPositions
	case errors.Is(err, checkpoint.ErrNotFound):
		// No checkpoint yet: rebuild from scratch via full replay.
	default:
		return nil, fmt.Errorf("load checkpoint: %w", err)
	}
	return d, n.buildReplayPlan(d, lastByInput)
}

// restoreDurable applies what readDurable read: the checkpoint image
// overwrites the freshly initialised state, the replay plan is installed,
// and the log's LSN cursor moves past every scanned record so freshly
// logged decisions continue the sequence. The node's goroutines are not
// running.
func (n *node) restoreDurable(d *durableState) error {
	n.log.AdvanceLSN(d.maxSeen)
	n.mu.Lock()
	defer n.mu.Unlock()
	stats := d.stats
	if snap := d.snap; snap != nil {
		stats.ckptBytes = int64(checkpoint.EncodedSize(snap))
		if err := n.mem.Restore(snap.Memory); err != nil {
			return fmt.Errorf("restore checkpoint: %w", err)
		}
		n.rngMu.Lock()
		n.rng.Restore(snap.RandState)
		n.rngMu.Unlock()
		n.ckptEpoch = snap.Epoch
		n.coveredLSN = wal.LSN(snap.CoveredLSN)
		for i, id := range snap.InputPositions {
			*slot(&n.lastCommitted, i) = inputPos{id: id, set: true}
		}
		// Rebuild the output buffer from the snapshot so that outputs whose
		// inputs the snapshot covers are re-sent (releaseRestored, replay
		// requests); downstream identity dedup absorbs any it already has.
		recs := make([]outRecord, len(snap.Outputs))
		for i, o := range snap.Outputs {
			out := pendingOut{port: o.Port, ts: o.Timestamp, key: o.Key, payload: o.Payload}
			n.bufferOutput(&recs[i], o.ID, out, o.Trace, true)
			recs[i].version = event.Version(o.Version)
		}
	}
	n.replay = d.plan
	// Close the restore window and open the replay window of the anatomy
	// profiler; with nothing to replay the replay phase is a zero-length
	// span closed on the spot.
	now := time.Now().UnixNano()
	stats.restoreEndNs, stats.replayStartNs = now, now
	if d.plan != nil {
		stats.coveredSet = int64(d.plan.covered)
	}
	if !d.plan.active() {
		stats.replayEndNs = now
	}
	n.recStats = stats
	return nil
}

// releaseRestored re-sends the restored outputs on the links that ACK: a
// snapshot misses the ACKs that came after it, and only downstream dedup's
// re-ACK prunes those outputs (a subscriber would see a second final). The
// caller has put a REDELIVER ahead of them.
func (n *node) releaseRestored() {
	n.resend(n.bufferedOutputs(), func(port int, m transport.Message) {
		for _, l := range n.links[port] {
			if l.buffered() {
				l.deliver(m)
			}
		}
	})
}

// planSourceReplay appends to an active replay plan what an in-process
// source upstream will re-send beyond it: its unacknowledged outputs, oldest
// first. An event on the wire at the crash can reach the new incarnation
// ahead of the replay of older ones the crash dropped; planned, it waits for
// them, so the source's edge stays FIFO across the recovery. A source never
// revokes or regenerates an output, so everything planned arrives.
func (n *node) planSourceReplay() {
	n.mu.Lock()
	ups := slices.Clone(n.upstream)
	n.mu.Unlock()
	for _, up := range ups {
		u, ok := up.(localUpstream)
		if !ok || u.n.spec.Op != nil {
			continue
		}
		recs := u.n.bufferedOutputs()
		n.mu.Lock()
		if plan := n.replay; plan.active() {
			plan.at.reserve(len(recs))
			plan.held = slices.Grow(plan.held, len(recs))
			plan.isHeld = slices.Grow(plan.isHeld, len(recs))
			for _, rec := range recs {
				if _, ok := plan.at.get(rec.id); !ok {
					plan.at.put(rec.id, int32(plan.end()))
					plan.held = append(plan.held, plannedEvent{})
					plan.isHeld = append(plan.isHeld, false)
				}
			}
		}
		n.mu.Unlock()
	}
}

// requestUpstreamReplay asks every connected upstream to re-send its
// unacknowledged outputs.
func (n *node) requestUpstreamReplay() {
	n.mu.Lock()
	ups := make([]upstreamSender, 0, len(n.upstream))
	for _, up := range n.upstream {
		if up != nil {
			ups = append(ups, up)
		}
	}
	n.mu.Unlock()
	for _, up := range ups {
		up.send(transport.Message{Type: transport.MsgReplay})
	}
}

// recover rebuilds the node and rejoins the graph.
func (n *node) recover() error {
	if !n.stopFlag.Load() {
		return fmt.Errorf("core: node %q is not crashed", n.spec.Name)
	}
	// What the dead incarnation submitted to the log is on the disk, or
	// failed, before the disk is read: none of its writes lands after.
	n.log.Settle()
	d, err := n.readDurable()
	if err != nil {
		return err
	}
	// Deterministic state layout, then overwrite with the checkpoint.
	if n.spec.Op != nil {
		if err := n.spec.Op.Init(initContext{n: n}); err != nil {
			return fmt.Errorf("re-init: %w", err)
		}
	}
	if err := n.restoreDurable(d); err != nil {
		return err
	}

	n.mailbox.Reopen()
	n.planSourceReplay() // after the reopen: what arrives from here on, it orders
	n.execQ.Reopen()
	// The re-executions repeat outputs whose finals may have gone out, and
	// so may the restored ones: downstream hears it first. Redeliveries to
	// the node are looked up from here on.
	n.armDedup()
	n.redeliver()
	n.releaseRestored() // once the mailbox takes the ACKs it draws
	n.stopFlag.Store(false)
	n.launch()

	// Re-grant inbound credits before asking for replay: the crash wiped
	// the mailbox, so credits outstanding at the moment of failure refer
	// to events that no longer occupy memory here. Without the refill the
	// upstream replay would wedge on credits nobody can return.
	for _, g := range n.inGates {
		g.Reset()
	}
	n.requestUpstreamReplay()
	return nil
}

// planRun turns an arriving run into the events that are now ready for
// admission, in admission order, appended to ready. Outside recovery that
// is the run itself. In recovery mode each event first passes through the
// replay plan: logged events are held until the plan reaches them and come
// back with their logged decisions attached, unlogged ones wait in the
// tail until the plan completes — possibly in the middle of the run, after
// which the rest of it passes straight through. Caller holds n.mu.
func (n *node) planRun(ready []plannedEvent, input int, evs []event.Event) []plannedEvent {
	for _, ev := range evs {
		pe := plannedEvent{input: input, ev: ev}
		plan := n.replay
		if !plan.active() {
			ready = append(ready, pe)
			continue
		}
		before := len(ready)
		if at, ok := plan.at.get(ev.ID); ok && int(at) >= plan.pos {
			i := int(at) - plan.covered
			plan.held[i], plan.isHeld[i] = pe, true
		} else {
			plan.tail = append(plan.tail, pe)
		}
		for ; plan.pos < plan.end(); plan.pos++ {
			i := plan.pos - plan.covered
			if !plan.isHeld[i] {
				break
			}
			held := plan.held[i]
			plan.held[i] = plannedEvent{}
			if plan.pos < plan.logged { // a planned source event has no record
				held.maxLSN, held.logged, held.decisions = plan.lsns[i], true, plan.decs[i]
			}
			ready = append(ready, held)
		}
		if plan.pos >= plan.end() {
			// Plan complete: flush the unlogged tail and leave recovery mode.
			ready = append(ready, plan.tail...)
			plan.finish()
			n.recStats.replayEndNs = time.Now().UnixNano()
		}
		n.recStats.replayEvents += int64(len(ready) - before)
	}
	return ready
}

// plannedEvent is an event ready for admission plus, after a recovery, the
// decisions the log holds for it.
type plannedEvent struct {
	input     int
	ev        event.Event
	decisions []decision
	logged    bool
	dup       bool // the node has committed it (set by admitRun)
	// maxLSN is the highest original decision-log LSN of this event;
	// replayed tasks must carry it so post-recovery checkpoints report
	// the correct coverage (nothing is re-logged during replay).
	maxLSN wal.LSN
}
