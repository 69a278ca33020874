package core

import (
	"sync"
	"testing"

	"streammine/internal/event"
	"streammine/internal/transport"
)

// ctlMsg is a control-lane frame numbered seq.
func ctlMsg(seq uint64) transport.Message {
	return transport.Message{Type: transport.MsgAck, ID: event.ID{Seq: event.Seq(seq)}}
}

// TestMailboxFIFO pushes through several ring growths with pops in
// between, so the order is checked across wrapped and regrown rings.
func TestMailboxFIFO(t *testing.T) {
	m := newMailbox()
	next, want := uint64(0), uint64(0)
	for round := 1; round <= 40; round++ {
		for i := 0; i < round; i++ {
			m.Push(ctlMsg(next))
			next++
		}
		for i := 0; i < round/2; i++ {
			v, ok := m.Pop()
			if !ok || v.msg.ID.Seq != event.Seq(want) {
				t.Fatalf("Pop = %v, %v, want seq %d", v.msg.ID, ok, want)
			}
			want++
		}
	}
	if m.Len() != int(next-want) {
		t.Fatalf("Len = %d, want %d", m.Len(), next-want)
	}
	for ; want < next; want++ {
		if v, ok := m.Pop(); !ok || v.msg.ID.Seq != event.Seq(want) {
			t.Fatalf("Pop = %v, %v, want seq %d", v.msg.ID, ok, want)
		}
	}
}

// TestMailboxPoppedSlotsCleared: a popped frame must not stay reachable
// from the lane's backing array.
func TestMailboxPoppedSlotsCleared(t *testing.T) {
	m := newMailbox()
	for i := uint64(0); i < 5; i++ {
		m.Push(transport.Message{Type: transport.MsgEvent, Event: event.Event{Payload: []byte("x")}})
		m.PushReexec(cmdReexec{t: &task{}})
	}
	for m.Len() > 0 {
		m.Pop()
	}
	for _, lane := range []*ring[mailItem]{&m.ctl, &m.data} {
		for i, it := range lane.buf {
			if it.msg.Event.Payload != nil || it.reexec.t != nil {
				t.Fatalf("slot %d still holds a popped item", i)
			}
		}
	}
}

// TestMailboxSteadyStateZeroAlloc: at a warm ring, queueing an EVENT, a
// FINALIZE or a re-execution command allocates nothing — the frame is
// stored by value, not boxed.
func TestMailboxSteadyStateZeroAlloc(t *testing.T) {
	m := newMailbox()
	tk := &task{}
	push := func() {
		m.Push(transport.Message{Type: transport.MsgEvent, Event: event.Event{Key: 1}})
		m.Push(transport.Message{Type: transport.MsgFinalize, Version: 1})
		m.PushReexec(cmdReexec{t: tk})
	}
	push() // warm both lanes
	for m.Len() > 0 {
		m.Pop()
	}
	if allocs := testing.AllocsPerRun(200, func() {
		push()
		for i := 0; i < 3; i++ {
			if _, ok := m.Pop(); !ok {
				t.Fatal("Pop failed")
			}
		}
	}); allocs != 0 {
		t.Errorf("push/pop at a warm ring allocated %.1f per round, want 0", allocs)
	}
}

func TestMailboxBlockingPop(t *testing.T) {
	m := newMailbox()
	got := make(chan mailItem, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, ok := m.Pop()
		if ok {
			got <- v
		}
	}()
	m.Push(ctlMsg(7))
	wg.Wait()
	if v := <-got; v.msg.ID.Seq != 7 {
		t.Fatalf("got %v", v.msg.ID)
	}
}

func TestMailboxCloseDrainsThenStops(t *testing.T) {
	m := newMailbox()
	m.Push(ctlMsg(1))
	m.Push(ctlMsg(2))
	m.Close()
	// Queued items remain poppable after Close.
	for want := event.Seq(1); want <= 2; want++ {
		if v, ok := m.Pop(); !ok || v.msg.ID.Seq != want {
			t.Fatalf("Pop after close = %v, %v", v.msg.ID, ok)
		}
	}
	if _, ok := m.Pop(); ok {
		t.Fatal("Pop on closed empty mailbox returned ok")
	}
	// Push after close is a silent no-op.
	m.Push(ctlMsg(3))
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
				m.Push(ctlMsg(uint64(i)))
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
	m.PushReexec(cmdReexec{t: &task{}})
	wantCtl := []transport.MsgType{transport.MsgFinalize, transport.MsgAck}
	for _, want := range wantCtl {
		v, ok := m.Pop()
		if !ok || v.msg.Type != want {
			t.Fatalf("Pop = %v (ok=%v), want control %v before any data", v.msg.Type, ok, want)
		}
	}
	if v, ok := m.Pop(); !ok {
		t.Fatal("Pop drained early")
	} else if v.reexec.t == nil {
		t.Fatalf("Pop = %v, want cmdReexec before data", v.msg.Type)
	}
	// Only then the data lane, still FIFO within itself.
	for i := uint64(0); i < 4; i++ {
		v, ok := m.Pop()
		if !ok || v.msg.Type != transport.MsgEvent || v.msg.ID.Seq != event.Seq(i) {
			t.Fatalf("data Pop %d = %v %v", i, v.msg.Type, v.msg.ID)
		}
	}
}

// TestMailboxDataAccounting: the data lane tracks occupancy, high-water
// and overshoot against its configured capacity without ever rejecting —
// the hard bound lives at the upstream credit gates.
func TestMailboxDataAccounting(t *testing.T) {
	m := newMailbox()
	m.SetDataCap(2)
	m.PushInject(make([]event.Event, 1)) // source injections ride the data lane
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
	if v, ok := m.Pop(); !ok || v.msg.ID.Seq != 2 {
		t.Fatalf("reopened mailbox Pop = %v, %v", v.msg.ID, ok)
	}
}
