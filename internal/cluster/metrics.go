package cluster

import (
	"streammine/internal/metrics"
	"streammine/internal/profiler"
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

// registerCoordWasteMetrics exports the cluster-wide speculation-waste
// rollup as func-backed series: each scrape merges the latest per-
// partition summaries (replaced per STATUS report, so totals never
// double-count). Registered only when the coordinator has a registry.
func registerCoordWasteMetrics(c *Coordinator, reg *metrics.Registry) {
	// total sums one ledger column over the merged summary's operators.
	total := func(col func(profiler.NodeWaste) uint64) func() uint64 {
		return func() uint64 {
			var n uint64
			if s := c.Waste(); s != nil {
				for _, nw := range s.Nodes {
					n += col(nw)
				}
			}
			return n
		}
	}
	for _, cause := range []string{"conflict", "revoke", "replace", "error"} {
		cause := cause
		reg.CounterFunc("cluster_waste_aborted_attempts_total",
			"Aborted attempts across the cluster, by cause (merged worker waste summaries).",
			metrics.Labels{"cause": cause},
			total(func(nw profiler.NodeWaste) uint64 { return nw.AbortedAttempts[cause] }))
		reg.CounterFunc("cluster_waste_cpu_ns_total",
			"CPU nanoseconds wasted in aborted attempts across the cluster, by cause.",
			metrics.Labels{"cause": cause},
			total(func(nw profiler.NodeWaste) uint64 { return uint64(nw.WastedCPUNs[cause]) }))
	}
	reg.CounterFunc("cluster_waste_reexecutions_total",
		"Re-executions dispatched after aborts across the cluster.", nil,
		total(func(nw profiler.NodeWaste) uint64 { return nw.Reexecutions }))
	reg.CounterFunc("cluster_waste_revoked_outputs_total",
		"Outputs revoked because their producing task aborted, across the cluster.", nil,
		total(func(nw profiler.NodeWaste) uint64 { return nw.RevokedOutputs }))
	reg.GaugeFunc("cluster_waste_cpu_pct",
		"Wasted CPU as a percentage of all attempt CPU across the cluster.", nil,
		func() float64 {
			if s := c.Waste(); s != nil {
				return s.WastePct()
			}
			return 0
		})
}
