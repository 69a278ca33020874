package core

import (
	"sync"
	"testing"

	"streammine/internal/event"
	"streammine/internal/transport"
)

func TestMailboxFIFO(t *testing.T) {
	m := newMailbox()
	for i := 0; i < 10; i++ {
		m.Push(i)
	}
	if m.Len() != 10 {
		t.Fatalf("Len = %d", m.Len())
	}
	for i := 0; i < 10; i++ {
		v, ok := m.Pop()
		if !ok || v.(int) != i {
			t.Fatalf("Pop %d = %v, %v", i, v, ok)
		}
	}
}

func TestMailboxBlockingPop(t *testing.T) {
	m := newMailbox()
	got := make(chan any, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, ok := m.Pop()
		if ok {
			got <- v
		}
	}()
	m.Push("hello")
	wg.Wait()
	if v := <-got; v.(string) != "hello" {
		t.Fatalf("got %v", v)
	}
}

func TestMailboxCloseDrainsThenStops(t *testing.T) {
	m := newMailbox()
	m.Push(1)
	m.Push(2)
	m.Close()
	// Queued items remain poppable after Close.
	if v, ok := m.Pop(); !ok || v.(int) != 1 {
		t.Fatalf("Pop after close = %v, %v", v, ok)
	}
	if v, ok := m.Pop(); !ok || v.(int) != 2 {
		t.Fatalf("Pop after close = %v, %v", v, ok)
	}
	if _, ok := m.Pop(); ok {
		t.Fatal("Pop on closed empty mailbox returned ok")
	}
	// Push after close is a silent no-op.
	m.Push(3)
	if _, ok := m.Pop(); ok {
		t.Fatal("Push after Close enqueued an item")
	}
}

func TestMailboxCloseUnblocksWaiters(t *testing.T) {
	m := newMailbox()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := m.Pop(); ok {
			t.Error("Pop returned ok on close")
		}
	}()
	m.Close()
	<-done
}

func TestMailboxConcurrentProducers(t *testing.T) {
	m := newMailbox()
	const producers, per = 4, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.Push(i)
			}
		}()
	}
	wg.Wait()
	if m.Len() != producers*per {
		t.Fatalf("Len = %d, want %d", m.Len(), producers*per)
	}
}

func dataMsg(seq uint64) transport.Message {
	return transport.Message{Type: transport.MsgEvent, ID: event.ID{Seq: event.Seq(seq)}}
}

// TestMailboxControlLanePriority: control messages overtake queued data, so
// FINALIZE/ACK/REPLAY retain progress while the data lane sits at capacity.
func TestMailboxControlLanePriority(t *testing.T) {
	m := newMailbox()
	m.SetDataCap(4)
	for i := uint64(0); i < 4; i++ {
		m.Push(dataMsg(i))
	}
	if m.DataDepth() != m.DataCap() {
		t.Fatalf("data lane at %d, want full (%d)", m.DataDepth(), m.DataCap())
	}
	m.Push(transport.Message{Type: transport.MsgFinalize})
	m.Push(transport.Message{Type: transport.MsgAck})
	m.Push(cmdReexec{})
	wantCtl := []transport.MsgType{transport.MsgFinalize, transport.MsgAck}
	for _, want := range wantCtl {
		v, ok := m.Pop()
		msg, isMsg := v.(transport.Message)
		if !ok || !isMsg || msg.Type != want {
			t.Fatalf("Pop = %v (ok=%v), want control %v before any data", v, ok, want)
		}
	}
	if v, ok := m.Pop(); !ok {
		t.Fatal("Pop drained early")
	} else if _, isReexec := v.(cmdReexec); !isReexec {
		t.Fatalf("Pop = %v, want cmdReexec before data", v)
	}
	// Only then the data lane, still FIFO within itself.
	for i := uint64(0); i < 4; i++ {
		v, ok := m.Pop()
		msg, isMsg := v.(transport.Message)
		if !ok || !isMsg || msg.ID.Seq != event.Seq(i) {
			t.Fatalf("data Pop %d = %v", i, v)
		}
	}
}

// TestMailboxDataAccounting: the data lane tracks occupancy, high-water
// and overshoot against its configured capacity without ever rejecting —
// the hard bound lives at the upstream credit gates.
func TestMailboxDataAccounting(t *testing.T) {
	m := newMailbox()
	m.SetDataCap(2)
	m.Push(&cmdInject{evs: make([]event.Event, 1)}) // source injections ride the data lane
	for i := uint64(0); i < 3; i++ {
		m.Push(dataMsg(i))
	}
	if d := m.DataDepth(); d != 4 {
		t.Fatalf("DataDepth = %d, want 4", d)
	}
	if h := m.DataHighWater(); h != 4 {
		t.Fatalf("DataHighWater = %d, want 4", h)
	}
	if o := m.Overflows(); o != 2 {
		t.Fatalf("Overflows = %d, want 2 (pushes 3 and 4 beyond cap 2)", o)
	}
	for i := 0; i < 4; i++ {
		if _, ok := m.Pop(); !ok {
			t.Fatalf("Pop %d failed", i)
		}
	}
	if d := m.DataDepth(); d != 0 {
		t.Fatalf("DataDepth after drain = %d", d)
	}
	if h := m.DataHighWater(); h != 4 {
		t.Fatalf("DataHighWater after drain = %d, want sticky 4", h)
	}
	m.Close()
	m.Reopen()
	if h := m.DataHighWater(); h != 0 {
		t.Fatalf("DataHighWater after Reopen = %d, want 0", h)
	}
	if m.DataCap() != 2 {
		t.Fatalf("DataCap lost across Reopen: %d", m.DataCap())
	}
}

// TestMailboxReopenDiscardsBothLanes: recovery reopens the crashed node's
// mailbox in place; everything queued pre-crash is discarded (upstream
// replays the unacknowledged events).
func TestMailboxReopenDiscardsBothLanes(t *testing.T) {
	m := newMailbox()
	m.Push(dataMsg(1))
	m.Push(transport.Message{Type: transport.MsgFinalize})
	m.Close()
	m.Reopen()
	if m.Len() != 0 {
		t.Fatalf("Len after Reopen = %d, want 0", m.Len())
	}
	m.Push(dataMsg(2))
	if v, ok := m.Pop(); !ok || v.(transport.Message).ID.Seq != 2 {
		t.Fatalf("reopened mailbox Pop = %v, %v", v, ok)
	}
}
