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
	for i, id := range n.lastCommitted {
		snap.InputPositions[i] = id
	}
	// Committed-but-unacknowledged outputs ride in the snapshot: their
	// inputs are covered (pruned upstream, below the replay start), so
	// after a crash nothing else could regenerate them. Non-final records
	// belong to uncommitted tasks, which log replay re-executes.
	pending := make([]*outRecord, 0, len(n.outBuf))
	for _, rec := range n.outBuf {
		if rec.finalSent.Load() {
			pending = append(pending, rec)
		}
	}
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
	// Write the covering mark and mirror it (recovery reads the mirror to
	// know which prefix of the log the snapshot supersedes). The batched
	// upstream ACKs are released only once the mark is stable: releasing
	// them earlier opens a crash window in which upstream buffers are
	// pruned while the replay plan still demands the covered events.
	mark := []wal.Record{{Kind: wal.KindCheckpointMark, Operator: n.opID, Value: uint64(covered)}}
	_, err := n.log.Append(mark, func(err error) {
		if err != nil {
			n.fail(fmt.Errorf("mark checkpoint: %w", err))
			return
		}
		n.mirrorStable(mark)
		// ACKs before Truncate: a covered event is redeliverable until its
		// ACK lands, and recovery identifies covered redeliveries by their
		// input records — those must outlive the redelivery window.
		for _, a := range acks {
			n.ackUpstream(a.input, a.id)
		}
		n.log.Truncate(covered)
	})
	if err != nil {
		n.fail(fmt.Errorf("mark checkpoint: %w", err))
	}
}

// mirrorChunk is the fixed capacity of one stableRecs chunk.
const mirrorChunk = 1024

// mirrorStable retains stable decision records for recovery replay.
func (n *node) mirrorStable(recs []wal.Record) {
	n.recMu.Lock()
	for len(recs) > 0 {
		last := len(n.stableRecs) - 1
		if last < 0 || len(n.stableRecs[last]) == mirrorChunk {
			n.stableRecs = append(n.stableRecs, make([]wal.Record, 0, mirrorChunk))
			last++
		}
		room := mirrorChunk - len(n.stableRecs[last])
		take := min(room, len(recs))
		n.stableRecs[last] = append(n.stableRecs[last], recs[:take]...)
		recs = recs[take:]
	}
	n.recMu.Unlock()
}

// stableRecords returns this node's stable decision records in LSN order.
func (n *node) stableRecords() []wal.Record {
	n.recMu.Lock()
	total := 0
	for _, c := range n.stableRecs {
		total += len(c)
	}
	out := make([]wal.Record, 0, total)
	for _, c := range n.stableRecs {
		out = append(out, c...)
	}
	n.recMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].LSN < out[j].LSN })
	return out
}
