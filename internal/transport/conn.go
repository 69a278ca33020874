package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Conn is a unidirectional-ish message link: Send pushes messages to the
// peer; received messages are delivered to the handler registered at
// construction. Implementations are safe for concurrent Send.
type Conn interface {
	// Send transmits one message.
	Send(m Message) error
	// Close tears the link down; the peer's handler stops receiving.
	Close() error
}

// ErrClosed is returned by Send after Close.
var ErrClosed = errors.New("transport: closed")

// Handler consumes received messages. Handlers run on the connection's
// receive goroutine and must not block indefinitely.
type Handler func(Message)

// tcpConn adapts a net.Conn to the Conn interface.
type tcpConn struct {
	nc           net.Conn
	writeTimeout time.Duration // per-Send deadline; 0 = none
	chaos        bool          // chaos-targeted: the shim applies here

	sendMu sync.Mutex
	closed sync.Once
	done   chan struct{}
	wg     sync.WaitGroup
}

var _ Conn = (*tcpConn)(nil)

// Send writes one frame. With a write timeout configured, a peer that has
// stopped draining its socket fails the Send instead of blocking forever
// (the caller treats any Send error as a dead link and redials).
func (c *tcpConn) Send(m Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	select {
	case <-c.done:
		return ErrClosed
	default:
	}
	if c.chaos {
		if cfg, ok := ActiveChaos(); ok {
			if cfg.SendDelay > 0 {
				time.Sleep(cfg.SendDelay)
			}
			if chaosDropNow(cfg.DropPerMille) {
				return ErrChaosDrop
			}
		}
	}
	if c.writeTimeout > 0 {
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.writeTimeout))
	}
	if err := WriteMessage(c.nc, m); err != nil {
		return fmt.Errorf("tcp send: %w", err)
	}
	countSend(m.Type)
	return nil
}

// Close shuts the socket down and waits for the read loop.
func (c *tcpConn) Close() error {
	var err error
	c.closed.Do(func() {
		close(c.done)
		err = c.nc.Close()
		c.wg.Wait()
	})
	return err
}

// readLoop decodes frames into the handler until the socket closes.
func (c *tcpConn) readLoop(h Handler) {
	defer c.wg.Done()
	for {
		m, err := ReadMessage(c.nc)
		if err != nil {
			return
		}
		if h != nil {
			h(m)
		}
	}
}

// DialOptions bound how long a connection may hang on an unresponsive
// peer. The zero value of a field selects its default.
type DialOptions struct {
	// ConnectTimeout bounds the TCP connect (default 10 s).
	ConnectTimeout time.Duration
	// KeepAlive is the TCP keepalive probe interval (default 15 s);
	// negative disables keepalives.
	KeepAlive time.Duration
	// WriteTimeout, when positive, is applied as a deadline to every Send
	// so a peer that stops reading fails the link instead of wedging it.
	WriteTimeout time.Duration
	// Chaos marks the connection as a target for the process-wide chaos
	// shim (SetChaos): dial delay applies before connecting, and send
	// delay / injected loss apply to every frame. The engine's data-plane
	// bridges dial with this set; control links never do.
	Chaos bool
}

// Default connection-hygiene bounds (see DialOptions).
const (
	DefaultConnectTimeout = 10 * time.Second
	DefaultKeepAlive      = 15 * time.Second
)

// Dial connects to a listening node and returns the connection; inbound
// messages go to h. It uses the default DialOptions: bounded connect,
// keepalive on, no write deadline.
func Dial(addr string, h Handler) (Conn, error) {
	return DialWith(addr, DialOptions{}, h)
}

// DialWith is Dial with explicit connection-hygiene bounds.
func DialWith(addr string, o DialOptions, h Handler) (Conn, error) {
	if o.ConnectTimeout <= 0 {
		o.ConnectTimeout = DefaultConnectTimeout
	}
	if o.KeepAlive == 0 {
		o.KeepAlive = DefaultKeepAlive
	}
	if o.Chaos {
		if cfg, ok := ActiveChaos(); ok && cfg.DialDelay > 0 {
			time.Sleep(cfg.DialDelay)
		}
	}
	d := net.Dialer{Timeout: o.ConnectTimeout, KeepAlive: o.KeepAlive}
	nc, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c := &tcpConn{nc: nc, writeTimeout: o.WriteTimeout, chaos: o.Chaos, done: make(chan struct{})}
	c.wg.Add(1)
	go c.readLoop(h)
	return c, nil
}

// ConnHandler consumes received messages along with the connection they
// arrived on, so replies (ACKs, replay requests) can flow back over the
// same link.
type ConnHandler func(c Conn, m Message)

// Server accepts TCP connections for a node.
type Server struct {
	ln net.Listener

	mu     sync.Mutex
	conns  []Conn
	closed bool
	wg     sync.WaitGroup
}

// ListenConn starts accepting connections on addr (use "127.0.0.1:0" for
// an ephemeral port). Each accepted connection's inbound messages go to h
// along with the connection they arrived on.
func ListenConn(addr string, h ConnHandler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	s := &Server{ln: ln}
	s.wg.Add(1)
	go s.acceptLoop(h)
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop(h ConnHandler) {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			_ = tc.SetKeepAlive(true)
			_ = tc.SetKeepAlivePeriod(DefaultKeepAlive)
		}
		c := &tcpConn{nc: nc, done: make(chan struct{})}
		var inner Handler
		if h != nil {
			inner = func(m Message) { h(c, m) }
		}
		c.wg.Add(1)
		go c.readLoop(inner)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = c.Close()
			return
		}
		s.conns = append(s.conns, c)
		s.mu.Unlock()
	}
}

// Close stops accepting and closes all accepted connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := s.conns
	s.conns = nil
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}
