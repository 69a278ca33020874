// Package event defines the event model shared by every StreamMine
// subsystem: globally unique event identifiers, application timestamps,
// speculation metadata (speculative flag plus a version counter that
// distinguishes successive speculative re-emissions of the same logical
// event), and a compact binary codec used both by the TCP transport and by
// the decision log.
//
// An event is *final* when the operator that produced it guarantees the
// event will never change: after a failure, a re-emitted final event is
// byte-identical to the original and can be silently dropped by receivers
// (precise recovery, paper §2.2). An event is *speculative* when it may
// still be revoked or replaced by a later version.
package event

import (
	"bytes"
	"fmt"
	"strconv"
)

// SourceID identifies the operator instance that created an event.
type SourceID uint32

// Seq is a per-source monotonically increasing sequence number.
type Seq uint64

// ID uniquely identifies a logical event across the whole graph. Two
// physical events with the same ID are versions of the same logical event:
// at most one of them will ever become final.
type ID struct {
	Source SourceID
	Seq    Seq
}

// String renders the ID as "source:seq".
func (id ID) String() string {
	return strconv.FormatUint(uint64(id.Source), 10) + ":" +
		strconv.FormatUint(uint64(id.Seq), 10)
}

// Version counts re-emissions of a logical event. The first emission is
// version 0; every rollback + re-execution that changes the event's content
// increments the version. A FINALIZE control message carries the version it
// finalizes, so a receiver can tell whether its speculative copy is already
// correct (same version → flip to final in place) or stale (lower version →
// wait for the replacement).
type Version uint32

// Event is a single data item flowing through the operator graph.
//
// Events are treated as immutable once emitted: operators must not mutate a
// received event's payload in place but create derived events instead. The
// engine relies on this to share one allocation across output buffers and
// downstream queues.
type Event struct {
	// ID identifies the logical event.
	ID ID
	// Timestamp is the application timestamp in ticks (the unit is defined
	// by the application; sources assign it). Commit order inside an
	// operator follows timestamps (paper §5, STM extension).
	Timestamp int64
	// Version is the speculation version of this physical emission.
	Version Version
	// Speculative marks an event that may still change. Final events
	// (Speculative == false) never change.
	Speculative bool
	// Key is an application routing key used by partitioning operators
	// (Split) and by sketch operators.
	Key uint64
	// Trace is the latency-attribution trace id: every output derived from
	// a source event inherits the source's trace id, so per-process span
	// logs can be stitched into one cross-process lineage. Zero means
	// untraced. Trace is derived deterministically from the source event ID
	// (TraceOf), so a post-crash deterministic re-emission produces the
	// same trace id and replay spans join the original lineage.
	Trace uint64
	// Payload is the opaque application content.
	Payload []byte
}

// TraceOf derives the trace id for a source event id. The derivation is a
// splitmix64 finalizer over the packed (source, seq) pair: well mixed so
// head-based sampling can threshold on it, deterministic so recovery
// re-derives the same id, and never zero (zero means untraced).
func TraceOf(id ID) uint64 {
	z := uint64(id.Source)<<48 ^ uint64(id.Seq) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Clone returns a deep copy of the event (payload included).
func (e Event) Clone() Event {
	c := e
	if e.Payload != nil {
		c.Payload = make([]byte, len(e.Payload))
		copy(c.Payload, e.Payload)
	}
	return c
}

// AsFinal returns a copy of the event marked final.
func (e Event) AsFinal() Event {
	e.Speculative = false
	return e
}

// SameContent reports whether two events carry identical observable content
// (everything except the speculative flag and version). Precise recovery
// requires that a re-emitted final duplicate satisfies SameContent with the
// original.
func (e Event) SameContent(other Event) bool {
	return e.ID == other.ID &&
		e.Timestamp == other.Timestamp &&
		e.Key == other.Key &&
		bytes.Equal(e.Payload, other.Payload)
}

// String renders a short human-readable description, for logs and tests.
func (e Event) String() string {
	spec := "final"
	if e.Speculative {
		spec = fmt.Sprintf("spec/v%d", e.Version)
	}
	return fmt.Sprintf("event{%s ts=%d %s %dB}", e.ID, e.Timestamp, spec, len(e.Payload))
}
