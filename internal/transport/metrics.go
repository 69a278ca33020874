package transport

import (
	"sync/atomic"

	"streammine/internal/metrics"
)

// Metrics instruments the transport layer. Counters are process-global:
// every Conn counts sends by message type, and
// every Detector counts down-transitions as heartbeat misses. Nil fields
// are skipped.
type Metrics struct {
	// Sent indexes per-type send counters by MsgType. Index 0 collects
	// unknown types.
	Sent [maxMsgType + 1]*metrics.Counter
	// HeartbeatMisses counts failure-detector down transitions.
	HeartbeatMisses *metrics.Counter
}

// activeMetrics is the installed instrumentation; nil disables counting.
var activeMetrics atomic.Pointer[Metrics]

// SetMetrics installs (or, with nil, removes) the transport
// instrumentation. Typically called once at process start via
// RegisterMetrics.
func SetMetrics(m *Metrics) { activeMetrics.Store(m) }

// RegisterMetrics creates the transport counter series on reg
// (transport_messages_sent_total{type=...}, transport_heartbeat_misses_total),
// installs them as the process-wide transport instrumentation and
// returns them.
func RegisterMetrics(reg *metrics.Registry) *Metrics {
	m := &Metrics{
		HeartbeatMisses: reg.Counter("transport_heartbeat_misses_total",
			"Failure-detector down transitions (peer silent past the timeout)."),
	}
	const help = "Messages sent on transport connections, by type."
	for t := MsgEvent; t <= maxMsgType; t++ {
		m.Sent[t] = reg.CounterWith("transport_messages_sent_total", help,
			metrics.Labels{"type": t.String()})
	}
	SetMetrics(m)
	return m
}

// countSend records one outbound message, if instrumentation is active.
func countSend(t MsgType) {
	m := activeMetrics.Load()
	if m == nil {
		return
	}
	if int(t) >= len(m.Sent) {
		t = 0
	}
	if c := m.Sent[t]; c != nil {
		c.Inc()
	}
}

// countHeartbeatMisses records failure-detector down transitions.
func countHeartbeatMisses(n int) {
	if n == 0 {
		return
	}
	m := activeMetrics.Load()
	if m == nil || m.HeartbeatMisses == nil {
		return
	}
	m.HeartbeatMisses.Add(uint64(n))
}
