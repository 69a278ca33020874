package ingest

import (
	"bufio"
	"crypto/tls"
	"fmt"
	"net"
	"time"
)

// Client is a binary-lane producer with at-least-once delivery on top of
// the gateway's exactly-once dedup: it assigns contiguous sequence
// numbers, retries on connection loss and RETRY verdicts with
// exponential backoff, and relies on the server to absorb the resulting
// resends as duplicates. One Client drives one stream from one
// goroutine; run several Clients for concurrency.
type Client struct {
	addr    string
	stream  string
	opts    ClientOptions
	conn    net.Conn
	r       *bufio.Reader
	w       *bufio.Writer
	nextSeq uint64

	acked   uint64
	dups    uint64
	retries uint64
}

// ClientOptions tunes a Client. The zero value is usable against an
// open-mode gateway on a healthy network.
type ClientOptions struct {
	// Token is the tenant's bearer token.
	Token string
	// TLS, when set, dials through TLS (e.g. InsecureSkipVerify for
	// self-signed test certificates).
	TLS *tls.Config
	// Backoff is the initial retry delay, doubled per consecutive
	// failure up to 2s (default 50ms).
	Backoff time.Duration
	// MaxElapsed bounds the total time Send may spend retrying one batch
	// (default 60s).
	MaxElapsed time.Duration
}

// NewClient returns an unconnected client; the first Send dials.
func NewClient(addr, stream string, opts ClientOptions) *Client {
	if opts.Backoff <= 0 {
		opts.Backoff = 50 * time.Millisecond
	}
	if opts.MaxElapsed <= 0 {
		opts.MaxElapsed = 60 * time.Second
	}
	return &Client{addr: addr, stream: stream, opts: opts, nextSeq: 1}
}

// fatalError is a server verdict that retrying cannot fix.
type fatalError struct {
	code uint64
	msg  string
}

func (e *fatalError) Error() string {
	return fmt.Sprintf("ingest: server error %d: %s", e.code, e.msg)
}

// dialTimeout bounds one connection attempt.
const dialTimeout = 5 * time.Second

func (c *Client) dial() error {
	var conn net.Conn
	var err error
	if c.opts.TLS != nil {
		conn, err = tls.DialWithDialer(&net.Dialer{Timeout: dialTimeout}, "tcp", c.addr, c.opts.TLS)
	} else {
		conn, err = net.DialTimeout("tcp", c.addr, dialTimeout)
	}
	if err != nil {
		return err
	}
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 32<<10)
	if _, err := w.WriteString(magic); err != nil {
		_ = conn.Close()
		return err
	}
	if err := writeFrame(w, frameHello, encodeHello(c.opts.Token, c.stream)); err != nil {
		_ = conn.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		_ = conn.Close()
		return err
	}
	typ, body, err := readFrame(r)
	if err != nil {
		_ = conn.Close()
		return err
	}
	if typ == frameErr {
		_ = conn.Close()
		code, msg, derr := decodeErr(body)
		if derr != nil {
			return derr
		}
		return &fatalError{code: code, msg: msg}
	}
	if typ != frameHelloOK {
		_ = conn.Close()
		return fmt.Errorf("ingest: unexpected hello reply %#x", typ)
	}
	c.conn, c.r, c.w = conn, r, w
	return nil
}

func (c *Client) drop() {
	if c.conn != nil {
		_ = c.conn.Close()
		c.conn = nil
	}
}

// Record is one record to send.
type Record struct {
	Key     uint64
	Payload []byte
}

// Send delivers one batch, assigning it the next contiguous sequence
// range, and blocks until the gateway acknowledges it (retrying through
// disconnects and RETRY verdicts). Safe to call repeatedly; not safe for
// concurrent use.
func (c *Client) Send(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	wire := make([]batchRecord, len(recs))
	for i, r := range recs {
		wire[i] = batchRecord{Key: r.Key, Payload: r.Payload}
	}
	firstSeq := c.nextSeq
	body := encodeBatch(firstSeq, wire)
	deadline := time.Now().Add(c.opts.MaxElapsed)
	backoff := c.opts.Backoff

	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.retries++
			if time.Now().After(deadline) {
				return fmt.Errorf("ingest: batch at seq %d not acknowledged within %v", firstSeq, c.opts.MaxElapsed)
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
		}
		if c.conn == nil {
			if err := c.dial(); err != nil {
				var fe *fatalError
				if ok := asFatal(err, &fe); ok {
					return fe
				}
				continue
			}
		}
		if err := writeFrame(c.w, frameBatch, body); err != nil {
			c.drop()
			continue
		}
		if err := c.w.Flush(); err != nil {
			c.drop()
			continue
		}
		typ, rbody, err := readFrame(c.r)
		if err != nil {
			c.drop()
			continue
		}
		switch typ {
		case frameAck:
			through, dups, err := decodeAck(rbody)
			if err != nil {
				c.drop()
				continue
			}
			end := firstSeq + uint64(len(recs)) - 1
			if through < end {
				c.drop()
				return fmt.Errorf("ingest: partial ack through %d, expected %d", through, end)
			}
			c.nextSeq = end + 1
			c.acked += uint64(len(recs))
			c.dups += dups
			return nil
		case frameRetry:
			afterMillis, _, err := decodeRetry(rbody)
			if err != nil {
				c.drop()
				continue
			}
			// Honor the server's Retry-After in place of our own backoff.
			if d := time.Duration(afterMillis) * time.Millisecond; d > backoff {
				backoff = d
			}
			continue
		case frameErr:
			code, msg, derr := decodeErr(rbody)
			c.drop()
			if derr != nil {
				return derr
			}
			return &fatalError{code: code, msg: msg}
		default:
			c.drop()
			continue
		}
	}
}

func asFatal(err error, out **fatalError) bool {
	fe, ok := err.(*fatalError)
	if ok {
		*out = fe
	}
	return ok
}

// Acked returns the number of records acknowledged so far.
func (c *Client) Acked() uint64 { return c.acked }

// Dups returns the duplicate count the server reported across ACKs —
// the retries its dedup absorbed.
func (c *Client) Dups() uint64 { return c.dups }

// Retries returns the number of send attempts beyond the first.
func (c *Client) Retries() uint64 { return c.retries }

// Close drops the connection.
func (c *Client) Close() { c.drop() }
