package transport

import "sync"

// pipeConn is one end of an in-process pipe.
type pipeConn struct {
	peer *pipeConn

	mu      sync.Mutex
	handler Handler
	closed  bool
	wg      sync.WaitGroup
	queue   chan Message
	stop    chan struct{}
}

var _ Conn = (*pipeConn)(nil)

// pipe creates a connected in-process pair: messages sent on a flow to
// b's handler and vice versa. Handlers may be nil (messages dropped).
// Each side runs one delivery goroutine, stopped by Close of either end.
func pipe(aHandler, bHandler Handler) (Conn, Conn) {
	a := &pipeConn{handler: aHandler, queue: make(chan Message, 1024), stop: make(chan struct{})}
	b := &pipeConn{handler: bHandler, queue: make(chan Message, 1024), stop: make(chan struct{})}
	a.peer, b.peer = b, a
	a.wg.Add(1)
	go a.deliver()
	b.wg.Add(1)
	go b.deliver()
	return a, b
}

// deliver pumps this side's inbound queue into its handler.
func (c *pipeConn) deliver() {
	defer c.wg.Done()
	for {
		select {
		case <-c.stop:
			return
		case m := <-c.queue:
			c.mu.Lock()
			h := c.handler
			c.mu.Unlock()
			if h != nil {
				h(m)
			}
		}
	}
}

// Send enqueues m for the peer's handler.
func (c *pipeConn) Send(m Message) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	select {
	case c.peer.queue <- m:
		countSend(m.Type)
		return nil
	case <-c.peer.stop:
		return ErrClosed
	}
}

// Close stops this end; pending undelivered messages are dropped.
func (c *pipeConn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
	return nil
}

// listen is ListenConn for a handler that ignores the connection.
func listen(addr string, h Handler) (*Server, error) {
	if h == nil {
		return ListenConn(addr, nil)
	}
	return ListenConn(addr, func(_ Conn, m Message) { h(m) })
}
