package core

import (
	"fmt"
	"sort"

	"streammine/internal/checkpoint"
	"streammine/internal/event"
	"streammine/internal/transport"
	"streammine/internal/wal"
)

// takeCheckpoint snapshots the operator state, persists it, marks the log
// and releases the batched upstream ACKs, one run per input, once the mark
// is stable.
func (n *node) takeCheckpoint() {
	n.rngMu.Lock()
	randState := n.rng.State()
	n.rngMu.Unlock()

	n.mu.Lock()
	n.ckptEpoch++
	snap := &checkpoint.Snapshot{
		Operator:       n.opID,
		Epoch:          n.ckptEpoch,
		CoveredLSN:     uint64(n.coveredLSN),
		RandState:      randState,
		Memory:         nil, // filled below, outside n.mu
		InputPositions: make(map[int]event.ID, len(n.lastCommitted)),
	}
	for i, p := range n.lastCommitted {
		if p.set {
			snap.InputPositions[i] = p.id
		}
	}
	// Committed-but-unacknowledged outputs ride in the snapshot: their
	// inputs are covered (pruned upstream, below the replay start), so
	// after a crash nothing else could regenerate them. Non-final records
	// belong to uncommitted tasks, which log replay re-executes.
	pending := make([]*outRecord, 0, n.outBuf.len())
	n.outBuf.each(func(_ event.ID, rec *outRecord) {
		if rec.finalSent {
			pending = append(pending, rec)
		}
	})
	sort.Slice(pending, func(i, j int) bool { return pending[i].seq < pending[j].seq })
	for _, rec := range pending {
		snap.Outputs = append(snap.Outputs, checkpoint.Output{
			ID: rec.id, Port: rec.port, Timestamp: rec.ts,
			Key: rec.key, Version: uint32(rec.version), Payload: rec.payload,
			Trace: rec.trace,
		})
	}
	// Its ACKs wait in sinceCkpt, seen by admission's duplicate check, until
	// the mark is stable: sent sooner, they let upstream prune what replay needs.
	upTo := n.ackedCkpt + uint64(len(n.sinceCkpt))
	covered := n.coveredLSN
	n.mu.Unlock()

	snap.Memory = n.mem.Snapshot()
	if err := n.eng.store.Save(snap); err != nil {
		n.fail(fmt.Errorf("save checkpoint: %w", err))
		return
	}
	mark := []wal.Record{{Kind: wal.KindCheckpointMark, Operator: n.opID, Value: uint64(covered)}}
	n.eng.inflight.add(1) // the mark, until the ACKs it releases are sent
	_, err := n.log.Append(mark, func(err error) {
		defer n.settle(1)
		if err != nil {
			n.fail(fmt.Errorf("mark checkpoint: %w", err))
			return
		}
		var runs [][]transport.FinalizeRef // by input: one ACK run each
		n.mu.Lock()
		k := max(upTo, n.ackedCkpt) - n.ackedCkpt // none if a later mark or a crash took them
		for _, a := range n.sinceCkpt[:k] {
			runs = addAt(runs, a.input, transport.FinalizeRef{ID: a.id})
		}
		n.sinceCkpt, n.ackedCkpt = n.sinceCkpt[k:], n.ackedCkpt+k
		n.mu.Unlock()
		for input, run := range runs {
			if len(run) > 0 {
				n.sendUpstream(input, refFrame(run, true))
			}
		}
	})
	if err != nil {
		n.fail(fmt.Errorf("mark checkpoint: %w", err))
		n.settle(1)
	}
}
