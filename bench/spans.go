package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync/atomic"
)

// Span kinds. Every span is recorded by the harness, around a call into a
// layer or inside a wrapper the engine accepted from its caller; spans
// inside the modules are a later change.
const (
	spGenEmit          = iota // generator inside Emit/EmitBatch
	spGenSend                 // generator inside ingest Client.Send
	spIngestEmitBatch         // gateway inside the wrapped Emitter.EmitBatch
	spCoreOpProcess           // engine inside a wrapped Operator.Process
	spStorageDiskWrite        // storage pool inside the benchmark-owned Disk.Write
	spCheckpointSave          // engine inside the wrapped Store.Save
	spCheckpointLatest        // engine inside the wrapped Store.Latest
	spWalScan                 // engine inside Options.LogScanner
	spCoreCrash               // harness inside Engine.Crash
	spCoreRecover             // harness inside Engine.Recover
	spSinkFirst               // due time → first availability at the sink
	spSinkFinal               // due time → first final at the sink
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"gen.emit", "gen.send", "ingest.emit_batch", "core.op_process", "storage.disk_write",
	"checkpoint.save", "checkpoint.latest", "wal.scan", "core.crash", "core.recover",
	"sink.first", "sink.final",
}

// span is one timed interval. req ties the spans of one request together:
// the source event's Trace, or the record Key on the ingest path (both are
// inherited by every derived output); 0 marks work no single request owns
// (a group-commit disk write, a checkpoint).
type span struct {
	kind       uint8
	req        uint64
	start, end int64 // harness clock, ns
}

// recorder keeps spans in memory until the run ends. It is nil outside
// the traced pass, so an untraced run pays one pointer check per site.
type recorder struct {
	spans   []span
	free    func()
	next    atomic.Int64
	dropped atomic.Int64

	// Exact per-kind totals, kept apart from the span table so that a
	// table that filled up does not bend the per-layer figures.
	count [numSpanKinds]atomic.Int64
	busy  [numSpanKinds]atomic.Int64
}

func newRecorder(capacity int) (*recorder, error) {
	spans, free, err := offHeap[span](capacity)
	if err != nil {
		return nil, err
	}
	return &recorder{spans: spans, free: free}, nil
}

func (r *recorder) close() { r.free() }

func (r *recorder) span(kind int, req uint64, start, end int64) {
	r.count[kind].Add(1)
	r.busy[kind].Add(end - start)
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	r.spans[i] = span{kind: uint8(kind), req: req, start: start, end: end}
}

// recorded returns the spans written so far. Call it once the system has
// stopped.
func (r *recorder) recorded() []span {
	return r.spans[:min(r.next.Load(), int64(len(r.spans)))]
}

// durations returns the sorted durations of one span kind.
func (r *recorder) durations(kind int) []int64 {
	var d []int64
	for _, s := range r.recorded() {
		if int(s.kind) == kind {
			d = append(d, s.end-s.start)
		}
	}
	slices.Sort(d)
	return d
}

// interval is a half-open time range.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover:
// children are clipped to the parent, and where they overlap each other
// the overlap is subtracted once.
func selfTime(parent interval, children []interval) int64 {
	cs := slices.Clone(children)
	slices.SortFunc(cs, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	covered := int64(0)
	edge := parent.start // everything before edge is already accounted for
	for _, c := range cs {
		s, e := max(c.start, edge), min(c.end, parent.end)
		if e > s {
			covered += e - s
			edge = e
		}
	}
	return parent.end - parent.start - covered
}

// resolveParents gives every span the index of the span that caused it,
// or -1. Within a request the envelope is its sink.final span (due time →
// final delivery) and everything else the request did hangs off it; work
// no request owns hangs off the tightest enclosing span of the same sort
// (wal.scan and checkpoint.latest run inside core.recover).
func resolveParents(spans []span) []int32 {
	parent := make([]int32, len(spans))
	root := make(map[uint64]int32)
	var unowned []int32
	for i, s := range spans {
		parent[i] = -1
		switch {
		case s.req == 0:
			unowned = append(unowned, int32(i))
		case s.kind == spSinkFinal:
			root[s.req] = int32(i)
		}
	}
	for i, s := range spans {
		if s.req == 0 || s.kind == spSinkFinal {
			continue
		}
		if p, ok := root[s.req]; ok {
			parent[i] = p
		}
	}
	// Unowned spans are few (one per disk write, checkpoint or recovery
	// step), so the quadratic containment search stays cheap.
	recoveries := make([]int32, 0, 64)
	for _, i := range unowned {
		if spans[i].kind == spCoreRecover {
			recoveries = append(recoveries, i)
		}
	}
	for _, i := range unowned {
		s := spans[i]
		if s.kind != spWalScan && s.kind != spCheckpointLatest {
			continue
		}
		for _, j := range recoveries {
			if spans[j].start <= s.start && s.end <= spans[j].end {
				parent[i] = j
				break
			}
		}
	}
	return parent
}

// writeChromeTrace writes the spans as Chrome trace-event JSON, which
// ui.perfetto.dev opens directly. Spans become nestable async slices, one
// track per request id, so the spans of one request stack under its
// envelope even though different goroutines recorded them.
func writeChromeTrace(path string, spans []span) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	parents := resolveParents(spans)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range spans {
		id := s.req
		if id == 0 {
			id = uint64(i) + 1
		}
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		name := spanNames[s.kind]
		fmt.Fprintf(w, "\n"+`{"ph":"b","cat":"bench","name":%q,"pid":1,"tid":1,"id":"0x%x","ts":%.3f,"args":{"span":%d,"parent":%d,"req":"0x%x"}},`,
			name, id, float64(s.start)/1e3, i, parents[i], s.req)
		fmt.Fprintf(w, "\n"+`{"ph":"e","cat":"bench","name":%q,"pid":1,"tid":1,"id":"0x%x","ts":%.3f}`,
			name, id, float64(s.end)/1e3)
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}
