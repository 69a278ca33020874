// Package flow implements the engine's flow-control primitives: bounded
// mailbox capacities, credit-based transfer windows on edges, token-bucket
// source admission with an AIMD controller, and an adaptive cap on open
// speculative tasks.
//
// The primitives are deliberately decoupled from the core runtime: each is
// a small synchronization object with no knowledge of events, nodes, or
// transports. The core engine composes them:
//
//   - Limits is the per-node configuration record, parsed from the JSON
//     topology and attached to graph nodes.
//   - CreditGate bounds the number of in-flight data events on one edge.
//     The sender acquires one credit per event; the receiver grants the
//     credit back when the event leaves its mailbox. Control traffic never
//     consumes credits, so FINALIZE/REVOKE/ACK/REPLAY always make progress.
//   - TokenBucket + Admission rate-limit a source. Events rejected by the
//     shed policy were never admitted, never assigned a place in any
//     decision log, and are therefore invisible to recovery by
//     construction.
//   - SpecThrottle caps the number of open (uncommitted) speculative tasks
//     per node while the observed abort rate is high, and tightens the cap
//     as it rises — the paper's promptness-vs-waste knob turned
//     automatically. Every node has one, off until aborts engage it. It is
//     the policy only, with no lock: the node's dispatcher owns it, and
//     holds back the tasks it has no slot for itself.
package flow

// Limits configures flow control for one node. The zero value disables
// every configured mechanism; the speculation throttle is not configured —
// every node has one, off until its abort rate engages it.
type Limits struct {
	// MailboxCap bounds the node's data-lane mailbox. Zero means
	// unbounded. The bound is enforced upstream via credits; the mailbox
	// itself tracks occupancy and high-water marks against it.
	MailboxCap int `json:"mailboxCap,omitempty"`

	// CreditWindow is the number of in-flight data events permitted per
	// inbound edge. Zero disables credit gating on the edge. On a node
	// with one inbound edge the natural setting is CreditWindow ==
	// MailboxCap; with k edges, MailboxCap/k each.
	CreditWindow int `json:"creditWindow,omitempty"`

	// AdmitRate is the sustained source admission rate in events/second.
	// Zero disables admission control.
	AdmitRate float64 `json:"admitRate,omitempty"`

	// AdmitBurst is the token-bucket depth (maximum burst admitted at
	// once). Defaults to max(1, AdmitRate/10) when zero.
	AdmitBurst int `json:"admitBurst,omitempty"`

	// AIMD enables additive-increase/multiplicative-decrease adaptation
	// of the admission rate, driven by downstream queue pressure and
	// floored at AdmitRate/10.
	AIMD bool `json:"aimd,omitempty"`

	// Shed makes the source drop events that cannot be admitted
	// immediately instead of blocking the emitter. Shed events are
	// dropped before admission: they are never logged, so precise
	// recovery is unaffected.
	Shed bool `json:"shed,omitempty"`

	// BatchSize is not read: a run is what is ready — an edge frame is what
	// is queued behind it, up to 64 and a quarter of its credit window. The
	// field is still declared only because the benchmark sets it and a
	// change to the engine may not edit the benchmark; the benchmark-only
	// change that drops those lines drops the field.
	BatchSize int `json:"-"`
}

// Window is the credit window of each of a node's input edges, given their
// number: the explicit CreditWindow when set, else the mailbox capacity
// split evenly across them, so their windows sum to the capacity. Zero
// disables credit gating on the node's inbound edges.
func (l *Limits) Window(inputs int) int {
	switch {
	case l == nil:
		return 0
	case l.CreditWindow > 0:
		return l.CreditWindow
	case l.MailboxCap <= 0 || inputs < 1:
		return 0
	}
	return max(l.MailboxCap/inputs, 1)
}
