package core

import (
	"fmt"
	"sort"

	"streammine/internal/checkpoint"
	"streammine/internal/event"
	"streammine/internal/wal"
)

// takeCheckpoint snapshots the operator state, persists it, marks the log
// and releases the batched upstream ACKs once the snapshot is saved.
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
		if rec.finalSent.Load() {
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
	acks := n.sinceCkpt
	n.sinceCkpt = nil
	covered := n.coveredLSN
	n.mu.Unlock()

	snap.Memory = n.mem.Snapshot()
	if err := n.eng.store.Save(snap); err != nil {
		n.fail(fmt.Errorf("save checkpoint: %w", err))
		return
	}
	// The batched upstream ACKs are released only once the covering mark
	// is stable: releasing them earlier opens a crash window in which
	// upstream buffers are pruned while the replay plan still demands the
	// covered events.
	mark := []wal.Record{{Kind: wal.KindCheckpointMark, Operator: n.opID, Value: uint64(covered)}}
	_, err := n.log.Append(mark, func(err error) {
		if err != nil {
			n.fail(fmt.Errorf("mark checkpoint: %w", err))
			return
		}
		for _, a := range acks {
			n.ackUpstream(a.input, a.id)
		}
	})
	if err != nil {
		n.fail(fmt.Errorf("mark checkpoint: %w", err))
	}
}
