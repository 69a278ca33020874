package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"streammine/internal/checkpoint"
	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/operator"
	"streammine/internal/wal"
)

// The engine takes its disks, its checkpoint store, its log scanner, its
// operators and (at the gateway) its emitter from the caller. The
// benchmark owns or wraps each of them, so no figure depends on the
// sandbox's filesystem and the per-layer numbers are measured from
// outside the modules.

// disk is the benchmark's storage.Disk: it counts, sleeps a fixed sync
// latency where the workload calls for one, and keeps the bytes only
// where recovery must read them back.
type disk struct {
	snk     *sink
	latency time.Duration
	keep    bool

	writes atomic.Int64
	bytes  atomic.Int64
	busyNs atomic.Int64

	mu     sync.Mutex
	chunks [][]byte // one per Write, in write order
}

func (d *disk) Write(p []byte) error {
	start := d.snk.now()
	if d.latency > 0 {
		time.Sleep(d.latency)
	}
	if d.keep {
		c := append([]byte(nil), p...)
		d.mu.Lock()
		d.chunks = append(d.chunks, c)
		d.mu.Unlock()
	}
	end := d.snk.now()
	d.writes.Add(1)
	d.bytes.Add(int64(len(p)))
	d.busyNs.Add(end - start)
	if r := d.snk.rec; r != nil {
		r.span(spStorageDiskWrite, 0, start, end)
	}
	return nil
}

func (d *disk) Close() error { return nil }

// scan is the Options.LogScanner over a keeping disk: every stable
// decision record, decoded by wal.Scan.
func (d *disk) scan() ([]wal.Record, error) {
	start := d.snk.now()
	d.mu.Lock()
	var data []byte
	for _, c := range d.chunks {
		data = append(data, c...)
	}
	d.mu.Unlock()
	recs, err := wal.Scan(data)
	if r := d.snk.rec; r != nil {
		r.span(spWalScan, 0, start, d.snk.now())
	}
	return recs, err
}

// prune drops the leading writes that the operator's latest stable
// checkpoint mark covers, as a deployment's segment pruning would; without
// it every recovery would scan the whole history and the recovery time
// would grow with the length of the run. Call it only while the system is
// idle.
func (d *disk) prune(op uint32) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	last := make([]wal.LSN, len(d.chunks)) // highest LSN of op in each write
	var covered wal.LSN
	for i, c := range d.chunks {
		recs, err := wal.Scan(c)
		if err != nil {
			return fmt.Errorf("prune decision log: %w", err)
		}
		for _, r := range recs {
			if r.Operator != op {
				continue
			}
			last[i] = max(last[i], r.LSN)
			if r.Kind == wal.KindCheckpointMark {
				covered = max(covered, wal.LSN(r.Value))
			}
		}
	}
	drop := 0
	for drop < len(d.chunks) && last[drop] <= covered {
		drop++
	}
	d.chunks = append(d.chunks[:0], d.chunks[drop:]...)
	return nil
}

// ckptStore is the benchmark's checkpoint.Store: encoded snapshots in
// memory, with the counts and timings of the checkpoint layer.
type ckptStore struct {
	snk *sink

	mu   sync.Mutex
	byOp map[uint32][]byte

	saves     atomic.Int64
	saveBytes atomic.Int64
}

func newCkptStore(snk *sink) *ckptStore {
	return &ckptStore{snk: snk, byOp: make(map[uint32][]byte)}
}

func (st *ckptStore) Save(s *checkpoint.Snapshot) error {
	start := st.snk.now()
	data := checkpoint.Encode(s)
	st.mu.Lock()
	st.byOp[s.Operator] = data
	st.mu.Unlock()
	st.saves.Add(1)
	st.saveBytes.Add(int64(len(data)))
	if r := st.snk.rec; r != nil {
		r.span(spCheckpointSave, 0, start, st.snk.now())
	}
	return nil
}

func (st *ckptStore) Latest(op uint32) (*checkpoint.Snapshot, error) {
	start := st.snk.now()
	st.mu.Lock()
	data, ok := st.byOp[op]
	st.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: operator %d", checkpoint.ErrNotFound, op)
	}
	snap, err := checkpoint.Decode(data)
	if r := st.snk.rec; r != nil {
		r.span(spCheckpointLatest, 0, start, st.snk.now())
	}
	return snap, err
}

// tracedOp times Process. It is installed in the traced pass only.
type tracedOp struct {
	operator.Operator
	snk *sink
}

func (o tracedOp) Process(ctx operator.Context, e event.Event) error {
	start := o.snk.now()
	err := o.Operator.Process(ctx, e)
	o.snk.rec.span(spCoreOpProcess, e.Trace, start, o.snk.now())
	return err
}

// op returns the operator a workload should install: op itself, wrapped
// for timing during the traced pass.
func (s *sink) op(op operator.Operator) operator.Operator {
	if s.rec == nil {
		return op
	}
	return tracedOp{Operator: op, snk: s}
}

// gatewayEmitter sits between the ingest gateway and the engine source.
// The gateway calls it from one goroutine per stream, in admission order,
// so the order of calls is the source's emission order: it files each
// record's key and due time under the index the engine is about to give
// it, which is what lets the sink and the checker find them again.
type gatewayEmitter struct {
	inner *core.SourceHandle
	snk   *sink
	due   func(key uint64) int64

	orderBroken atomic.Bool // the engine numbered a record differently than predicted
}

func (g *gatewayEmitter) EmitBatch(items []core.BatchItem) ([]event.Event, error) {
	first := g.snk.emitted.Load() + 1
	if first+int64(len(items)) > g.snk.capacity() {
		return nil, fmt.Errorf("bench: sink table full at %d records", first)
	}
	for i, it := range items {
		sl := &g.snk.slots[first+int64(i)]
		sl.key, sl.dueNs = it.Key, g.due(it.Key)
	}
	g.snk.emitted.Store(first + int64(len(items)) - 1)
	start := g.snk.now()
	evs, err := g.inner.EmitBatch(items)
	if r := g.snk.rec; r != nil {
		r.span(spIngestEmitBatch, items[0].Key, start, g.snk.now())
	}
	for i, ev := range evs {
		if ev.Timestamp != first+int64(i) {
			g.orderBroken.Store(true)
		}
	}
	return evs, err
}
