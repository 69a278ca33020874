package core

import (
	"sync"

	"streammine/internal/event"
	"streammine/internal/flow"
	"streammine/internal/vclock"
)

// SourceHandle injects events into the graph through a source node.
type SourceHandle struct {
	n    *node
	tick *vclock.Ticker

	mu   sync.Mutex
	seq  event.Seq
	runs slab[event.Event] // what injected runs are cut from, under mu
}

// Emit publishes one final event with a fresh timestamp, returning it.
func (s *SourceHandle) Emit(key uint64, payload []byte) (event.Event, error) {
	return s.EmitAt(s.tick.Next(), key, payload)
}

// EmitAt publishes one final event with an explicit timestamp. When the
// source node has admission control configured, the call blocks until the
// token bucket admits the event — or, with shedding enabled, returns
// ErrShed immediately. A shed event still consumes a sequence number so
// event IDs stay deterministic under worker failover re-emission.
func (s *SourceHandle) EmitAt(ts int64, key uint64, payload []byte) (event.Event, error) {
	evs, err := s.emit([]BatchItem{{Key: key, Payload: payload}}, ts, false)
	if evs == nil {
		return event.Event{}, err
	}
	return evs[0], err
}

// BatchItem is one event-to-be in an EmitBatch call.
type BatchItem struct {
	Key     uint64
	Payload []byte
}

// EmitBatch publishes a run of final events with consecutive sequence
// numbers and fresh timestamps, charging source admission once for the
// whole run (one token-bucket transaction instead of len(items)) and
// injecting them as one run (one mailbox push, one output-port delivery).
// With shedding enabled the whole run is shed together — admitting a
// prefix would tear its all-or-nothing admission accounting. Each event is
// still logged and recovered individually; a run changes transfer
// granularity only, never decision granularity.
func (s *SourceHandle) EmitBatch(items []BatchItem) ([]event.Event, error) {
	if len(items) == 0 {
		return nil, nil
	}
	return s.emit(items, 0, true)
}

// emit is the one injection path: it cuts the run from the handle's slab,
// gives its events consecutive sequence numbers (and, with tick set, fresh
// timestamps in the same order; ts otherwise), charges source admission once
// for the run, and hands the run to the node's dispatcher. It returns the
// stamped events — with ErrShed when admission control dropped them before
// injection — or nil and the reason the source can no longer emit.
func (s *SourceHandle) emit(items []BatchItem, ts int64, tick bool) ([]event.Event, error) {
	s.mu.Lock()
	evs := s.runs.take(len(items))
	for i, it := range items {
		s.seq++
		if tick {
			ts = s.tick.Next()
		}
		id := event.ID{Source: event.SourceID(s.n.opID), Seq: s.seq}
		// The trace id is derived from the ID, so a failover re-emission of
		// the same sequence joins the original event's lineage.
		evs[i] = event.Event{ID: id, Timestamp: ts, Key: it.Key, Trace: event.TraceOf(id), Payload: it.Payload}
	}
	s.mu.Unlock()
	if a := s.n.admission.Load(); a != nil {
		switch a.AdmitN(len(evs)) {
		case flow.Shed:
			return evs, ErrShed
		case flow.Stopped:
			return nil, ErrStopped
		}
	}
	if s.n.stopFlag.Load() {
		return nil, ErrStopped
	}
	s.n.mailbox.PushInject(evs)
	return evs, nil
}
