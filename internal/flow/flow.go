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
//     per node and tightens the cap as the observed abort rate rises — the
//     paper's promptness-vs-waste knob turned automatically.
package flow

// Limits configures flow control for one node. The zero value disables
// every mechanism, preserving the unbounded pre-flow behavior.
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
	// of the admission rate, driven by downstream queue pressure.
	AIMD bool `json:"aimd,omitempty"`

	// MinRate floors the AIMD-controlled rate. Defaults to AdmitRate/10.
	MinRate float64 `json:"minRate,omitempty"`

	// Shed makes the source drop events that cannot be admitted
	// immediately instead of blocking the emitter. Shed events are
	// dropped before admission: they are never logged, so precise
	// recovery is unaffected.
	Shed bool `json:"shed,omitempty"`

	// MaxOpenSpec caps the number of open speculative tasks on the node.
	// Zero disables speculation throttling.
	MaxOpenSpec int `json:"maxOpenSpec,omitempty"`

	// MinOpenSpec floors the adaptive cap when the abort rate is high.
	// Defaults to 1.
	MinOpenSpec int `json:"minOpenSpec,omitempty"`

	// BatchSize enables hot-path batching on the node: source emissions,
	// credit-gated edge transfers and commit finalization amortize their
	// per-event costs over runs of up to BatchSize events. Zero or one
	// disables batching. Batching never delays a lone event on the commit
	// path — the committer only groups tasks that are already ready.
	BatchSize int `json:"batchSize,omitempty"`
}

// Batch returns the effective batch size: at least 1, so callers can use
// it directly as a loop bound.
func (l *Limits) Batch() int {
	if l == nil || l.BatchSize < 1 {
		return 1
	}
	return l.BatchSize
}
