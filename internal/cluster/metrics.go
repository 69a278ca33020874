package cluster

import (
	"streammine/internal/metrics"
	"streammine/internal/transport"
)

// clusterMetrics bundles the cluster runtime's observability series.
// A nil *clusterMetrics disables instrumentation (all methods nil-check).
type clusterMetrics struct {
	workersAlive     *metrics.Gauge
	partitions       *metrics.Gauge
	reassignments    *metrics.Counter
	bridgeReconnects *metrics.Counter
	bridgeRTT        *metrics.HDR
	statusBytes      *metrics.HDR
	ctlReceived      map[transport.MsgType]*metrics.Counter
}

// registerClusterMetrics resolves the cluster series once; returns nil
// when no registry is configured.
func registerClusterMetrics(r *metrics.Registry) *clusterMetrics {
	if r == nil {
		return nil
	}
	m := &clusterMetrics{
		workersAlive: r.Gauge("cluster_workers_alive",
			"Workers currently registered and passing the failure detector."),
		partitions: r.Gauge("cluster_partitions",
			"Topology partitions under coordinator management."),
		reassignments: r.Counter("cluster_reassignments_total",
			"Partition reassignments triggered by worker failures."),
		bridgeReconnects: r.Counter("cluster_bridge_reconnects_total",
			"Cross-worker bridge reconnections (redials after link loss or retarget)."),
		bridgeRTT: r.HDR("cluster_bridge_rtt",
			"Bridge dial round-trip (connect + hello) per successful attempt — the network cost a cut edge adds."),
		statusBytes: r.HDRCounts("cluster_status_bytes",
			"Encoded size in bytes of each STATUS report a worker sends — what the telemetry sections cost per heartbeat."),
		ctlReceived: make(map[transport.MsgType]*metrics.Counter),
	}
	for _, t := range []transport.MsgType{
		transport.MsgHello, transport.MsgRegister, transport.MsgAssign,
		transport.MsgStart, transport.MsgStatus, transport.MsgStop,
	} {
		m.ctlReceived[t] = r.CounterWith("cluster_control_received_total",
			"Control-plane messages received, by type.",
			metrics.Labels{"type": t.String()})
	}
	return m
}

func (m *clusterMetrics) control(t transport.MsgType) {
	if m == nil {
		return
	}
	if c, ok := m.ctlReceived[t]; ok {
		c.Inc()
	}
}

func (m *clusterMetrics) setWorkersAlive(n int) {
	if m != nil {
		m.workersAlive.Set(int64(n))
	}
}

func (m *clusterMetrics) setPartitions(n int) {
	if m != nil {
		m.partitions.Set(int64(n))
	}
}

func (m *clusterMetrics) reassigned() {
	if m != nil {
		m.reassignments.Inc()
	}
}

func (m *clusterMetrics) bridgeReconnected() {
	if m != nil {
		m.bridgeReconnects.Inc()
	}
}

func (m *clusterMetrics) statusEncoded(bytes int) {
	if m != nil {
		m.statusBytes.Observe(int64(bytes))
	}
}

// bridgeRTTHist returns the bridge RTT histogram (nil when unmetered;
// HDR methods are nil-safe).
func (m *clusterMetrics) bridgeRTTHist() *metrics.HDR {
	if m == nil {
		return nil
	}
	return m.bridgeRTT
}
