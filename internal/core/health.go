package core

// NodeHealth is one operator's liveness sample: cumulative commit count
// plus the admission→commit latency distribution, collected per node so
// the coordinator's health model can attribute an end-to-end latency
// budget hop by hop. It exists independently of Options.Metrics because
// cluster partition engines run unmetered (their fixed engine-series
// names would collide on a shared registry) yet still need per-hop
// latency for /debug/health.
type NodeHealth struct {
	Node string `json:"node"`
	// Committed is the node's cumulative committed-task count — the
	// coordinator derives per-operator finalize rates from successive
	// samples.
	Committed uint64 `json:"committed"`
	// FinalizeCount / FinalizeP50Ns / FinalizeP99Ns summarize the node's
	// admission→commit latency HDR (its core_finalize_latency series when
	// the engine is metered).
	FinalizeCount uint64 `json:"finalizeCount,omitempty"`
	FinalizeP50Ns int64  `json:"finalizeP50Ns,omitempty"`
	FinalizeP99Ns int64  `json:"finalizeP99Ns,omitempty"`
}

// Health snapshots a NodeHealth sample for every node, in node order, or
// nil when per-node sampling is disabled (Options.Health). Cheap enough
// to ride every STATUS heartbeat: it reads atomics only.
func (e *Engine) Health() []NodeHealth {
	if !e.opts.Health {
		return nil
	}
	out := make([]NodeHealth, 0, len(e.nodes))
	for _, n := range e.nodes {
		h := NodeHealth{Node: n.spec.Name, Committed: n.cCommitted.Load()}
		if lat := n.finLat; lat != nil {
			h.FinalizeCount = lat.Count()
			h.FinalizeP50Ns = lat.Quantile(0.50)
			h.FinalizeP99Ns = lat.Quantile(0.99)
		}
		out = append(out, h)
	}
	return out
}
