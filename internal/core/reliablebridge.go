package core

import (
	"fmt"
	"sync"
	"time"

	"streammine/internal/flow"
	"streammine/internal/graph"
	"streammine/internal/metrics"
	"streammine/internal/transport"
)

// ReliableBridge connects a node's output port to a remote engine over TCP
// (the paper's deployment model, §2.3: operators as processes connected by
// TCP, bridged at engine granularity). The remote engine must be listening
// with BridgeIn. The bridge dials the downstream engine, forwards the
// node's outputs, feeds the ACKs and replay requests coming back into the
// node, and on connection failure keeps redialing in the background with
// jittered exponential backoff. After
// every reconnect it replays the node's unacknowledged output buffer —
// exactly the paper's upstream-replay protocol (§2.2) applied to link
// failures: the downstream engine drops byte-identical duplicates and
// re-ACKs, so no event is lost or double-applied.
//
// Retarget repoints the bridge at a different address; the cluster
// runtime uses it when a downstream partition is reassigned to another
// worker after a failure.
type ReliableBridge struct {
	n        *node
	retry    time.Duration
	maxRetry time.Duration

	mu          sync.Mutex
	addr        string
	conn        transport.Conn
	closed      bool
	hello       *transport.Message
	onReconnect func()
	rtt         *metrics.HDR
	reconnects  int

	// gate, when non-nil, credit-limits data events over this bridge: the
	// remote receiver returns CREDIT frames as events leave its mailbox,
	// and the gate is refilled on every reconnect (the peer's volatile
	// state — and any credits stranded in flight — died with the link).
	gate *flow.CreditGate
	cl   *creditedLink

	stop chan struct{}
	done chan struct{}
}

// BridgeOptions tune a ReliableBridge. The zero value of a field selects
// its default.
type BridgeOptions struct {
	// Retry is the initial redial delay (default 100 ms).
	Retry time.Duration
	// MaxRetry caps the exponential backoff (default 2 s).
	MaxRetry time.Duration
	// Hello, when set, is sent first on every (re)connection, before any
	// data. The cluster runtime uses it to route a fresh connection to the
	// right edge on a worker's shared data listener.
	Hello *transport.Message
	// OnReconnect runs after every successful redial (e.g. to bump a
	// reconnect counter). It must not block.
	OnReconnect func()
	// CreditWindow, when positive, bounds the number of in-flight data
	// events on the bridge. The receiving engine grants credits back as
	// CREDIT frames; control traffic is never gated. Zero disables credit
	// flow control (pre-flow behavior).
	CreditWindow int
	// Batch, when > 1, coalesces up to Batch consecutive data events into
	// one EVENT_BATCH wire frame (one length prefix, one credit charge,
	// one syscall). Requires CreditWindow > 0; ignored otherwise.
	Batch int
	// RTT, when set, observes the dial round-trip (connect + hello) of
	// every connection attempt that succeeds — a proxy for the network
	// latency a cut edge adds per hop.
	RTT *metrics.HDR
}

// BridgeOutReliableOpts attaches a reconnecting bridge to a node output
// port.
func (e *Engine) BridgeOutReliableOpts(id graph.NodeID, port int, addr string, o BridgeOptions) (*ReliableBridge, error) {
	n, err := e.node(id)
	if err != nil {
		return nil, err
	}
	if port < 0 || port >= n.spec.OutputPorts {
		return nil, fmt.Errorf("core: node %q has no output port %d", n.spec.Name, port)
	}
	if o.Retry <= 0 {
		o.Retry = 100 * time.Millisecond
	}
	if o.MaxRetry <= 0 {
		o.MaxRetry = 2 * time.Second
	}
	b := &ReliableBridge{
		n:           n,
		addr:        addr,
		retry:       o.Retry,
		maxRetry:    o.MaxRetry,
		hello:       o.Hello,
		onReconnect: o.OnReconnect,
		rtt:         o.RTT,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	// The first connection is established synchronously so misconfigured
	// addresses fail fast.
	if err := b.connect(); err != nil {
		return nil, fmt.Errorf("bridge to %s: %w", addr, err)
	}
	var l link = b
	if o.CreditWindow > 0 {
		b.gate = flow.NewCreditGate(o.CreditWindow)
		b.cl = newCreditedLink(l, b.gate, o.Batch)
		l = b.cl
	}
	n.addLink(port, l)
	go b.supervise()
	return b, nil
}

// connect dials and installs a fresh connection, leading with the hello
// frame when configured.
func (b *ReliableBridge) connect() error {
	b.mu.Lock()
	addr := b.addr
	hello := b.hello
	b.mu.Unlock()
	dialStart := time.Now()
	// Data-plane link: dial chaos-targeted so the campaign runner's fault
	// shim (slow/lossy bridge) applies here and never to control links.
	conn, err := transport.DialWith(addr, transport.DialOptions{Chaos: true}, func(m transport.Message) {
		if m.Type == transport.MsgCredit {
			// Credit grants terminate here; the count rides ID.Seq.
			if b.gate != nil {
				b.gate.Grant(int(m.ID.Seq))
			}
			return
		}
		b.n.mailbox.Push(m) // ACKs and replay requests from downstream
	})
	if err != nil {
		return err
	}
	if hello != nil {
		if err := conn.Send(*hello); err != nil {
			_ = conn.Close()
			return err
		}
	}
	b.rtt.Record(time.Since(dialStart)) // nil-safe
	b.mu.Lock()
	if b.closed || b.addr != addr {
		// Closed or retargeted while dialing: discard and let the
		// supervisor try the current address.
		b.mu.Unlock()
		_ = conn.Close()
		return transport.ErrClosed
	}
	b.conn = conn
	b.mu.Unlock()
	return nil
}

// deliver makes the bridge the link on its node's output port: it forwards
// one message over the current connection. A failed send drops the
// connection so the supervisor redials; sends during the outage are
// dropped, and the post-reconnect replay re-delivers everything
// unacknowledged.
func (b *ReliableBridge) deliver(m transport.Message) {
	b.mu.Lock()
	conn := b.conn
	b.mu.Unlock()
	if conn == nil {
		return
	}
	if err := conn.Send(m); err != nil {
		b.mu.Lock()
		if b.conn == conn {
			b.conn = nil // supervisor will redial
		}
		b.mu.Unlock()
		_ = conn.Close()
	}
}

// buffered: outputs sent over a bridge take part in the ACK protocol.
func (b *ReliableBridge) buffered() bool { return true }

// supervise redials dropped connections — backing off exponentially with
// jitter while the peer stays down — and triggers the replay of the
// node's unacknowledged buffer after every successful reconnect.
func (b *ReliableBridge) supervise() {
	defer close(b.done)
	bo := backoff{base: b.retry, max: b.maxRetry}
	timer := time.NewTimer(b.retry)
	defer timer.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-timer.C:
		}
		b.mu.Lock()
		needsDial := b.conn == nil && !b.closed
		b.mu.Unlock()
		if !needsDial {
			bo.reset()
			timer.Reset(b.retry)
			continue
		}
		if err := b.connect(); err != nil {
			timer.Reset(bo.next())
			continue
		}
		bo.reset()
		timer.Reset(b.retry)
		b.mu.Lock()
		b.reconnects++
		onRec := b.onReconnect
		b.mu.Unlock()
		if onRec != nil {
			onRec()
		}
		// Refill the credit window before replaying: credits consumed by
		// events that died with the old link (or with the crashed peer)
		// would otherwise be stranded and wedge the replay. Grants the
		// restarted receiver sends for replayed events are clamped at the
		// window, so the refill cannot inflate it.
		if b.gate != nil {
			b.gate.Reset()
		}
		// Replay everything still unacknowledged over the new link.
		b.n.mailbox.Push(transport.Message{Type: transport.MsgReplay})
	}
}

// Retarget points the bridge at a new address. The current connection (if
// any) is torn down and the supervisor redials the new peer, replaying
// the unacknowledged buffer once it connects. Retargeting to the current
// address with a live connection is a no-op.
func (b *ReliableBridge) Retarget(addr string) {
	b.mu.Lock()
	if b.addr == addr && b.conn != nil {
		b.mu.Unlock()
		return
	}
	b.addr = addr
	conn := b.conn
	b.conn = nil
	b.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
}

// Addr returns the bridge's current target address.
func (b *ReliableBridge) Addr() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.addr
}

// Reconnects reports how many times the bridge re-established the link.
func (b *ReliableBridge) Reconnects() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reconnects
}

// Connected reports whether a live connection is installed.
func (b *ReliableBridge) Connected() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.conn != nil
}

// Close stops the supervisor and closes the connection.
func (b *ReliableBridge) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	conn := b.conn
	b.conn = nil
	b.mu.Unlock()
	close(b.stop)
	<-b.done
	if b.cl != nil {
		b.cl.close() // idempotent with node.stop's close of the same link
	}
	if conn != nil {
		return conn.Close()
	}
	return nil
}
