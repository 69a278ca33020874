package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"streammine/internal/checkpoint"
	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/stm"
	"streammine/internal/storage"
	"streammine/internal/transport"
	"streammine/internal/wal"
)

// A probe is an isolated loop over one layer's exported functions. It
// says what one call costs when nothing else runs, which is the figure to
// hold a layer's optimisation against before looking for it end to end.

// probeSink keeps results alive so the compiler cannot drop a probed call.
var probeSink uint64

// probe calls fn for about d and returns nanoseconds and heap allocations
// per call.
func probe(d time.Duration, fn func()) (ns, allocs float64) {
	for i := 0; i < 16; i++ { // let pools and lazily built tables settle
		fn()
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	start := time.Now()
	calls := 0
	for time.Since(start) < d {
		for i := 0; i < 32; i++ {
			fn()
		}
		calls += 32
	}
	elapsed := time.Since(start)
	metrics.Read(sample)
	return float64(elapsed.Nanoseconds()) / float64(calls),
		float64(sample[0].Value.Uint64()-before) / float64(calls)
}

// runProbes fills in every probe metric, each measured for d.
func runProbes(r *result, d time.Duration) error {
	// both reports time under name+unit ("_ns", or "_ns_per_event" for a
	// call that handles per events) and allocations under name+"_allocs".
	both := func(name, unit string, per float64, fn func()) {
		ns, allocs := probe(d, fn)
		r.set(name+unit, ns/per, "ns")
		r.set(name+"_allocs", allocs/per, "count")
	}
	only := func(name string, per float64, fn func()) {
		ns, _ := probe(d, fn)
		r.set(name, ns/per, "ns")
	}

	// flow
	gate := flow.NewCreditGate(64)
	only("flow.credit_acquire_grant_ns", 1, func() {
		gate.Acquire()
		gate.Grant(1)
	})
	bucket := flow.NewTokenBucket(1e12, 1<<30)
	only("flow.token_take_ns", 1, func() { bucket.Take(time.Now()) })
	adm := flow.NewAdmission(&flow.Limits{AdmitRate: 1e12, AdmitBurst: 1 << 30}, nil)
	only("flow.admit_n8_ns", 1, func() { adm.AdmitN(8) })
	adm.Close()

	// stm
	mem := stm.NewMemory(par2Depth * par2Width) // sketch-par2's sketch
	base, err := mem.Alloc(par2Depth * par2Width)
	if err != nil {
		return fmt.Errorf("stm probe: %w", err)
	}
	ts := int64(0)
	rw := func(tx *stm.Tx, a stm.Addr) {
		v, _ := tx.Read(a)
		_ = tx.Write(a, v+1)
	}
	both("stm.tx_rw1", "_ns", 1, func() { // the Classifier's transaction
		ts++
		tx := mem.Begin(ts)
		rw(tx, base+stm.Addr(ts&3))
		_ = tx.Complete()
		_ = tx.Commit()
	})
	both("stm.tx_rw24", "_ns", 1, func() { // the SketchOp's: every row read+written, then read again
		ts++
		tx := mem.Begin(ts)
		h := uint64(ts) * 0x9E3779B97F4A7C15
		cell := func(row int) stm.Addr { return base + stm.Addr(row*par2Width+int(h>>(7*row)%par2Width)) }
		for row := 0; row < par2Depth; row++ {
			rw(tx, cell(row))
		}
		for row := 0; row < par2Depth; row++ {
			v, _ := tx.Read(cell(row))
			probeSink += v
		}
		_ = tx.Complete()
		_ = tx.Commit()
	})
	group := make([]*stm.Tx, 8)
	only("stm.commit_group8_ns_per_tx", 8, func() {
		for i := range group {
			ts++
			group[i] = mem.Begin(ts)
			rw(group[i], base+stm.Addr(i))
			_ = group[i].Complete()
		}
		_, _ = mem.CommitGroup(group)
	})

	// storage and wal, over a zero-latency disk
	idle := &sink{epoch: time.Now()}
	pool := storage.NewPool([]storage.Disk{&disk{snk: idle}})
	chunk := make([]byte, 64)
	both("storage.pool_sync_write", "_ns", 1, func() { _ = pool.SyncWrite(chunk) })
	log := wal.New(pool)
	one := []wal.Record{{Kind: wal.KindRandom, Operator: 1, Event: event.ID{Source: 1, Seq: 1}, Value: 7}}
	both("wal.append_sync", "_ns", 1, func() { _, _ = log.AppendSync(one) })
	run := make([]wal.Record, 8)
	for i := range run {
		run[i] = one[0]
	}
	only("wal.append_run8_ns_per_rec", 8, func() { _, _ = log.AppendSync(run) })
	_ = pool.Close()
	keeper := &disk{snk: idle, keep: true}
	pool = storage.NewPool([]storage.Disk{keeper})
	log = wal.New(pool)
	for i := 0; i < 1024/8; i++ {
		if _, err := log.AppendSync(run); err != nil {
			return fmt.Errorf("wal probe: %w", err)
		}
	}
	_ = pool.Close()
	var logBytes []byte
	for _, c := range keeper.chunks {
		logBytes = append(logBytes, c...)
	}
	only("wal.scan_ns_per_rec", 1024, func() {
		recs, _ := wal.Scan(logBytes)
		probeSink += uint64(len(recs))
	})

	// checkpoint: a SketchOp{4,1024}-sized image
	snap := &checkpoint.Snapshot{Operator: 1, Epoch: 1, Memory: make([]uint64, 4096),
		InputPositions: map[int]event.ID{0: {Source: 1, Seq: 9}}}
	encoded := checkpoint.Encode(snap)
	kb := float64(len(encoded)) / 1024
	only("checkpoint.encode_ns_per_kb", kb, func() { probeSink += uint64(len(checkpoint.Encode(snap))) })
	only("checkpoint.decode_ns_per_kb", kb, func() {
		s, _ := checkpoint.Decode(encoded)
		probeSink += s.Epoch
	})

	// event and transport codecs
	ev := event.Event{ID: event.ID{Source: 3, Seq: 99}, Timestamp: 12345, Key: 42, Trace: 77, Payload: make([]byte, 16)}
	evs := make([]event.Event, 8)
	for i := range evs {
		evs[i] = ev
	}
	buf := make([]byte, 0, 4096)
	both("event.encode", "_ns", 1, func() { buf = ev.Encode(buf[:0]) })
	one1 := ev.Encode(nil)
	both("event.decode", "_ns", 1, func() {
		e, _, _ := event.Decode(one1)
		probeSink += e.Key
	})
	both("event.encode_batch8", "_ns_per_event", 8, func() { buf = event.EncodeBatch(buf[:0], evs) })
	batch := event.EncodeBatch(nil, evs)
	both("event.decode_batch8", "_ns_per_event", 8, func() {
		es, _, _ := event.DecodeBatch(batch)
		probeSink += uint64(len(es))
	})
	codec := func(name, unit string, per float64, m transport.Message) {
		both("transport.encode_"+name, unit, per, func() { buf = transport.EncodeMessage(buf[:0], m) })
		wire := transport.EncodeMessage(nil, m)
		both("transport.decode_"+name, unit, per, func() {
			got, _, _ := transport.DecodeMessage(wire)
			probeSink += uint64(got.Type)
		})
	}
	codec("event", "_ns", 1, transport.Message{Type: transport.MsgEvent, Event: ev})
	codec("batch8", "_ns_per_event", 8, transport.Message{Type: transport.MsgEventBatch, Events: evs})
	fin := transport.Message{Type: transport.MsgFinalizeBatch, Finals: make([]transport.FinalizeRef, 8)}
	both("transport.finalize_batch8", "_ns", 1, func() {
		buf = transport.EncodeMessage(buf[:0], fin)
		got, _, _ := transport.DecodeMessage(buf)
		probeSink += uint64(len(got.Finals))
	})
	return tcpRoundTrip(r, d)
}

// tcpRoundTrip measures transport.tcp_rtt_p50_us: one EVENT frame echoed
// over a loopback Dial/Listen pair.
func tcpRoundTrip(r *result, d time.Duration) error {
	srv, err := transport.ListenConn("127.0.0.1:0", func(c transport.Conn, m transport.Message) { _ = c.Send(m) })
	if err != nil {
		return fmt.Errorf("rtt probe: %w", err)
	}
	defer srv.Close()
	back := make(chan struct{}, 1)
	conn, err := transport.Dial(srv.Addr(), func(transport.Message) { back <- struct{}{} })
	if err != nil {
		return fmt.Errorf("rtt probe: %w", err)
	}
	defer conn.Close()
	msg := transport.Message{Type: transport.MsgEvent, Event: event.Event{ID: event.ID{Source: 1, Seq: 1}, Payload: make([]byte, 16)}}
	var rtts []int64
	for start := time.Now(); time.Since(start) < d; {
		t0 := time.Now()
		if err := conn.Send(msg); err != nil {
			return fmt.Errorf("rtt probe: %w", err)
		}
		select {
		case <-back:
		case <-time.After(time.Second):
			return fmt.Errorf("rtt probe: no echo within a second")
		}
		rtts = append(rtts, int64(time.Since(t0)))
	}
	s := summarize(rtts, 0.99)
	r.setTiming("transport.tcp_rtt_p50_us", s.p50, "us", s.n, "")
	return nil
}
