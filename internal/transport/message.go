// Package transport carries events and speculation-control messages
// between engines: TCP with a framed binary codec. (Nodes of one engine
// hand frames to each other in process, without a Conn.)
//
// Besides data events, the speculation protocol needs these control
// messages (paper §2.2, §3):
//
//	FINALIZE — an upstream speculative event became final (log stable);
//	REVOKE   — a speculative event was revoked (its content will be
//	           replaced by a higher version or never re-sent);
//	ACK      — a downstream node confirms an event will never be
//	           requested again, so the upstream output buffer can prune;
//	REPLAY   — a recovering node asks its upstream to re-send everything
//	           after a given event;
//	REDELIVER — what follows on this edge may repeat an output whose
//	           final already went out, so the receiver must look its
//	           arrivals up among what it committed.
package transport

import (
	"fmt"

	"streammine/internal/event"
)

// Message is one unit on the wire: a data event or a control message.
type Message struct {
	Type    MsgType
	Event   event.Event   // payload for MsgEvent
	ID      event.ID      // subject of control messages
	Version event.Version // version finalized / revoked
	Input   int           // receiving input index (set by the receiver side)
	Payload []byte        // opaque body for control-plane messages (MsgHello..MsgStop)
	Events  []event.Event // payload for MsgEventBatch (same edge, admission order)
	Finals  []FinalizeRef // payload for MsgFinalizeBatch / MsgAckBatch (commit order)
}

// FinalizeRef identifies one finalized output inside a MsgFinalizeBatch:
// the event and the version whose content became final.
type FinalizeRef struct {
	ID      event.ID
	Version event.Version
}

// MsgType discriminates message kinds on the wire.
type MsgType uint8

// Message kinds. MsgEvent..MsgHeartbeat carry the speculation protocol;
// MsgHello..MsgStop carry the cluster runtime's opaque control payloads:
// HELLO names the target edge on a data-plane bridge connection, and
// REGISTER/ASSIGN/START/STATUS/STOP form the coordinator/worker control
// plane (internal/cluster defines the payload schemas). MsgCredit is the
// flow-control grant on a bridged data edge: the receiver returns credits
// as events leave its mailbox, and the grant count rides ID.Seq (there is
// no subject event).
//
// MsgEventBatch, MsgFinalizeBatch and MsgAckBatch are the amortized
// hot-path frames: a run of same-edge events (or FINALIZE notices, or
// upstream ACKs) travels as one frame, one mailbox push, and — on
// credit-gated edges — one batched credit charge. They are versioned by
// their type byte, like the CREDIT kind before them: old encoders never
// emit the new types, so unbatched frames stay byte-identical to the
// legacy wire format.
//
// MsgRedeliver is a control tuple with no subject: a sender puts it on an
// edge ahead of a replay, of the outputs of a restored incarnation, or of a
// re-sent output whose final already left. Between two of them an edge
// carries each output's final at most once.
const (
	MsgEvent MsgType = iota + 1
	MsgFinalize
	MsgRevoke
	MsgAck
	MsgReplay
	MsgHeartbeat
	MsgHello
	MsgRegister
	MsgAssign
	MsgStart
	MsgStatus
	MsgStop
	MsgCredit
	MsgEventBatch
	MsgFinalizeBatch
	MsgAckBatch
	MsgRedeliver
)

// maxMsgType is the highest defined message kind (metrics sizing).
const maxMsgType = MsgRedeliver

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgEvent:
		return "EVENT"
	case MsgFinalize:
		return "FINALIZE"
	case MsgRevoke:
		return "REVOKE"
	case MsgAck:
		return "ACK"
	case MsgReplay:
		return "REPLAY"
	case MsgHeartbeat:
		return "HEARTBEAT"
	case MsgHello:
		return "HELLO"
	case MsgRegister:
		return "REGISTER"
	case MsgAssign:
		return "ASSIGN"
	case MsgStart:
		return "START"
	case MsgStatus:
		return "STATUS"
	case MsgStop:
		return "STOP"
	case MsgCredit:
		return "CREDIT"
	case MsgEventBatch:
		return "EVENT_BATCH"
	case MsgFinalizeBatch:
		return "FINALIZE_BATCH"
	case MsgAckBatch:
		return "ACK_BATCH"
	case MsgRedeliver:
		return "REDELIVER"
	default:
		return fmt.Sprintf("msg(%d)", uint8(t))
	}
}
