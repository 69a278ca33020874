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

// crash tears down the node and wipes volatile state.
func (n *node) crash() {
	n.stopFlag.Store(true)
	// Close the throttle first: workers parked in WaitSince (deferred
	// admissions) must unblock for wg.Wait to finish. recover() reopens
	// it via Reset.
	n.throttle.Close()
	n.mailbox.Close()
	n.execQ.Close()
	n.notifyCommitter()
	n.wg.Wait()

	// Abort open transactions so no downstream STM chains dangle. (All
	// state dies with the memory anyway; this is bookkeeping hygiene.)
	n.mu.Lock()
	for i := 0; i < n.open.n; i++ {
		t := n.open.at(i)
		t.mu.Lock()
		tx := t.tx
		t.mu.Unlock()
		if tx != nil {
			tx.Abort()
		}
	}
	n.resetVolatile()
	n.mem = stm.NewMemory(n.mem.Capacity())
	n.mu.Unlock()
	// Rebind profiling hooks to the fresh memory (workers are joined, so
	// this is single-threaded); recover() re-runs Op.Init, repopulating
	// the address map the resolver reads.
	n.installProfiler()
	// All open tasks died with the node; free their speculation slots.
	n.throttle.Reset()
}

// replayPlan drives recovery-mode dispatch: logged events are admitted in
// logged order with their logged decisions; unlogged events (the tail that
// was in flight at the crash) follow afterwards in arrival order.
type replayPlan struct {
	// order is the admission order of every logged input, at the position
	// of each in it; pos is the next to admit (what lies before it, the
	// restored snapshot covers or replay has admitted).
	order    []event.ID
	at       map[event.ID]int
	pos      int
	decs     map[event.ID][]decision
	lsns     map[event.ID]wal.LSN
	buffered map[event.ID]plannedEvent
	tail     []plannedEvent
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
	for _, r := range stable {
		// Highest LSN of the whole scan, all operators and marks included:
		// a fresh Log over reopened storage must continue the sequence.
		if r.LSN > d.maxSeen {
			d.maxSeen = r.LSN
		}
		if r.Operator == n.opID && r.Kind != wal.KindCheckpointMark {
			recs = append(recs, r)
		}
	}
	slices.SortFunc(recs, func(a, b wal.Record) int { return cmp.Compare(a.LSN, b.LSN) })
	d.stats.logRecords = int64(len(recs))

	// Admission order of every logged input.
	plan := &replayPlan{
		at:       make(map[event.ID]int),
		decs:     make(map[event.ID][]decision),
		lsns:     make(map[event.ID]wal.LSN),
		buffered: make(map[event.ID]plannedEvent),
	}
	for _, r := range recs {
		if r.Kind != wal.KindInput {
			continue
		}
		if _, ok := plan.at[r.Event]; !ok {
			plan.at[r.Event] = len(plan.order)
			plan.order = append(plan.order, r.Event)
		}
	}
	for _, id := range lastByInput {
		if p, ok := plan.at[id]; ok && p >= plan.pos {
			plan.pos = p + 1
		}
	}
	for _, id := range plan.order[:plan.pos] {
		d.covered.add(id)
	}
	for _, r := range recs {
		if d.covered.has(r.Event) {
			continue
		}
		if r.Kind == wal.KindRandom || r.Kind == wal.KindTime {
			plan.decs[r.Event] = append(plan.decs[r.Event], decision{kind: r.Kind, value: r.Value})
		}
		if r.LSN > plan.lsns[r.Event] {
			plan.lsns[r.Event] = r.LSN
		}
	}
	if plan.pos < len(plan.order) || len(plan.decs) > 0 {
		d.plan = plan // else nothing to replay: plain restart
	}
	return nil
}

// durableState is what a node read back from stable storage, held apart
// from the node until all of it is there.
type durableState struct {
	snap    *checkpoint.Snapshot // nil: no checkpoint yet
	plan    *replayPlan          // nil: nothing to replay
	covered idSet
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
		stats.ckptBytes = int64(len(checkpoint.Encode(snap)))
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
		// Rebuild the output buffer from the snapshot so a downstream
		// replay request can re-send outputs whose inputs the snapshot
		// covers; downstream identity dedup absorbs any it already has.
		recs := make([]outRecord, len(snap.Outputs))
		for i, o := range snap.Outputs {
			out := pendingOut{port: o.Port, ts: o.Timestamp, key: o.Key, payload: o.Payload}
			n.bufferOutput(&recs[i], o.ID, out, o.Trace, true)
			recs[i].version = event.Version(o.Version)
		}
	}
	n.replay = d.plan
	// Redeliveries of events the snapshot already covers must be dropped
	// (and re-ACKed): the covering mark may never have become stable, in
	// which case upstream was never told to prune them (paper §2.2: replay
	// "starting at the last logged messages from each source").
	n.recoverDrop = d.covered
	// Close the restore window and open the replay window of the anatomy
	// profiler; with nothing to replay the replay phase is a zero-length
	// span closed on the spot.
	now := time.Now().UnixNano()
	stats.restoreEndNs, stats.replayStartNs, stats.coveredSet = now, now, int64(d.covered.len())
	if d.plan == nil {
		stats.replayEndNs = now
	}
	n.recStats = stats
	return nil
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
	n.execQ.Reopen()
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
		if plan == nil {
			ready = append(ready, pe)
			continue
		}
		before := len(ready)
		if at, ok := plan.at[ev.ID]; ok && at >= plan.pos {
			plan.buffered[ev.ID] = pe
		} else {
			plan.tail = append(plan.tail, pe)
		}
		for plan.pos < len(plan.order) {
			next := plan.order[plan.pos]
			held, ok := plan.buffered[next]
			if !ok {
				break
			}
			delete(plan.buffered, next)
			held.decisions, held.logged, held.maxLSN = plan.decs[next], true, plan.lsns[next]
			ready = append(ready, held)
			plan.pos++
		}
		if plan.pos >= len(plan.order) {
			// Plan complete: flush the unlogged tail and leave recovery mode.
			ready = append(ready, plan.tail...)
			n.replay = nil
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
