package transport

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced Clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestDetectorDownAfterTimeout(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	var downs []string
	var mu sync.Mutex
	d := NewDetector(time.Second, func(p string) {
		mu.Lock()
		downs = append(downs, p)
		mu.Unlock()
	})
	d.clock = clock

	d.Observe("node-a")
	d.Observe("node-b")
	if !d.Alive("node-a") {
		t.Fatal("fresh peer not alive")
	}
	if d.Alive("stranger") {
		t.Fatal("unknown peer alive")
	}

	clock.Advance(500 * time.Millisecond)
	d.Observe("node-b") // keep b fresh
	clock.Advance(700 * time.Millisecond)

	newly := d.Check()
	if len(newly) != 1 || newly[0] != "node-a" {
		t.Fatalf("newly down = %v, want [node-a]", newly)
	}
	if d.Alive("node-a") || !d.Alive("node-b") {
		t.Fatalf("liveness wrong: a=%v b=%v", d.Alive("node-a"), d.Alive("node-b"))
	}
	mu.Lock()
	got := len(downs)
	mu.Unlock()
	if got != 1 {
		t.Fatalf("onDown fired %d times", got)
	}
	// A second check must not re-report.
	if again := d.Check(); len(again) != 0 {
		t.Fatalf("re-reported down peers: %v", again)
	}
}

func TestDetectorResurrection(t *testing.T) {
	clock := &fakeClock{now: time.Unix(100, 0)}
	d := NewDetector(time.Second, nil)
	d.clock = clock
	d.Observe("n")
	clock.Advance(2 * time.Second)
	if down := d.Check(); len(down) != 1 {
		t.Fatalf("down = %v", down)
	}
	// The peer comes back.
	d.Observe("n")
	if !d.Alive("n") {
		t.Fatal("resurrected peer not alive")
	}
	// And can die again, with a fresh notification.
	clock.Advance(2 * time.Second)
	if down := d.Check(); len(down) != 1 || down[0] != "n" {
		t.Fatalf("second death not reported: %v", down)
	}
	if _, ok := d.LastSeen("n"); !ok {
		t.Fatal("LastSeen forgot the peer")
	}
}

func TestHeartbeaterSendsOverPipe(t *testing.T) {
	received := make(chan Message, 64)
	a, b := pipe(nil, func(m Message) { received <- m })
	defer a.Close()
	defer b.Close()

	hb := NewHeartbeater(a, 5*time.Millisecond)
	defer hb.Stop()

	deadline := time.After(5 * time.Second)
	count := 0
	for count < 3 {
		select {
		case m := <-received:
			if m.Type != MsgHeartbeat {
				t.Fatalf("got %v", m.Type)
			}
			count++
		case <-deadline:
			t.Fatalf("only %d heartbeats arrived", count)
		}
	}
}

func TestHeartbeaterStopsOnDeadConn(t *testing.T) {
	a, b := pipe(nil, nil)
	_ = b.Close()
	_ = a.Close()
	hb := NewHeartbeater(a, time.Millisecond)
	// The loop must exit on its own once Send fails; Stop must not hang.
	done := make(chan struct{})
	go func() {
		hb.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung on dead connection")
	}
}

func TestHeartbeatWireRoundTrip(t *testing.T) {
	buf := EncodeMessage(nil, Message{Type: MsgHeartbeat})
	m, n, err := DecodeMessage(buf)
	if err != nil || n != len(buf) || m.Type != MsgHeartbeat {
		t.Fatalf("round trip: %+v, %d, %v", m, n, err)
	}
	if MsgHeartbeat.String() != "HEARTBEAT" {
		t.Fatal("String() wrong")
	}
}

// TestDetectorEndToEndTCP: heartbeats over real TCP keep the peer alive;
// closing the connection leads to a down transition.
func TestDetectorEndToEndTCP(t *testing.T) {
	det := NewDetector(200*time.Millisecond, nil)
	srv, err := listen("127.0.0.1:0", func(m Message) {
		if m.Type == MsgHeartbeat {
			det.Observe("client")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hb := NewHeartbeater(conn, 20*time.Millisecond)

	// Stays alive while heartbeating.
	deadline := time.Now().Add(5 * time.Second)
	for !det.Alive("client") {
		if time.Now().After(deadline) {
			t.Fatal("client never became alive")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond)
	det.Check()
	if !det.Alive("client") {
		t.Fatal("client died despite heartbeats")
	}

	// Kill the link: the detector notices within the timeout.
	hb.Stop()
	_ = conn.Close()
	for det.Alive("client") {
		det.Check()
		if time.Now().After(deadline) {
			t.Fatal("client never declared down")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
