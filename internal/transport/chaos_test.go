package transport

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// collectHandler gathers received messages for assertions.
type collectHandler struct {
	mu   sync.Mutex
	msgs []Message
}

func (h *collectHandler) handle(m Message) {
	h.mu.Lock()
	h.msgs = append(h.msgs, m)
	h.mu.Unlock()
}

func (h *collectHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.msgs)
}

func dialPair(t *testing.T, o DialOptions) (Conn, *collectHandler, func()) {
	t.Helper()
	h := &collectHandler{}
	srv, err := listen("127.0.0.1:0", h.handle)
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	c, err := DialWith(srv.Addr(), o, nil)
	if err != nil {
		srv.Close()
		t.Fatalf("dial: %v", err)
	}
	return c, h, func() {
		_ = c.Close()
		_ = srv.Close()
	}
}

func TestChaosOffByDefault(t *testing.T) {
	if _, ok := ActiveChaos(); ok {
		t.Fatal("chaos active without SetChaos")
	}
	SetChaos(Chaos{}) // zero value clears
	if _, ok := ActiveChaos(); ok {
		t.Fatal("zero Chaos should clear the configuration")
	}
}

func TestChaosPartitionDropsTargetedSends(t *testing.T) {
	SetChaos(Chaos{DropPerMille: 1000})
	defer ClearChaos()

	c, _, cleanup := dialPair(t, DialOptions{Chaos: true})
	defer cleanup()

	before := ChaosDrops()
	err := c.Send(Message{Type: MsgEvent})
	if !errors.Is(err, ErrChaosDrop) {
		t.Fatalf("Send under full partition: got %v, want ErrChaosDrop", err)
	}
	if got := ChaosDrops(); got != before+1 {
		t.Fatalf("ChaosDrops = %d, want %d", got, before+1)
	}
}

func TestChaosIgnoresUntargetedConnections(t *testing.T) {
	SetChaos(Chaos{DropPerMille: 1000, SendDelay: time.Hour})
	defer ClearChaos()

	c, h, cleanup := dialPair(t, DialOptions{}) // control link: Chaos unset
	defer cleanup()

	if err := c.Send(Message{Type: MsgEvent}); err != nil {
		t.Fatalf("untargeted Send failed under chaos: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for h.count() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("message never delivered on untargeted connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestChaosSendDelayStallsFrames(t *testing.T) {
	const delay = 50 * time.Millisecond
	SetChaos(Chaos{SendDelay: delay})
	defer ClearChaos()

	c, _, cleanup := dialPair(t, DialOptions{Chaos: true})
	defer cleanup()

	start := time.Now()
	if err := c.Send(Message{Type: MsgEvent}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if took := time.Since(start); took < delay {
		t.Fatalf("Send took %v, want >= %v injected stall", took, delay)
	}
}

func TestChaosPartialLossDropsSomeNotAll(t *testing.T) {
	SetChaos(Chaos{DropPerMille: 500})
	defer ClearChaos()

	c, _, cleanup := dialPair(t, DialOptions{Chaos: true})
	defer cleanup()

	dropped, delivered := 0, 0
	for i := 0; i < 200; i++ {
		if err := c.Send(Message{Type: MsgEvent}); errors.Is(err, ErrChaosDrop) {
			dropped++
		} else if err == nil {
			delivered++
		} else {
			t.Fatalf("unexpected Send error: %v", err)
		}
	}
	if dropped == 0 || delivered == 0 {
		t.Fatalf("500pm loss over 200 sends: dropped=%d delivered=%d, want both > 0", dropped, delivered)
	}
}
