package core

import (
	"sync"
	"testing"

	"streammine/internal/event"
	"streammine/internal/metrics"
	"streammine/internal/transport"
)

// ctlMsg is a control-lane frame numbered seq.
func ctlMsg(seq uint64) transport.Message {
	return transport.Message{Type: transport.MsgAck, ID: event.ID{Seq: event.Seq(seq)}}
}

// TestMailboxFIFO pushes through several ring growths with pops in
// between, so the order is checked across wrapped and regrown rings.
func TestMailboxFIFO(t *testing.T) {
	m := newMailbox(new(inflight))
	next, want := uint64(0), uint64(0)
	for round := 1; round <= 40; round++ {
		for i := 0; i < round; i++ {
			m.Push(ctlMsg(next))
			next++
		}
		for i := 0; i < round/2; i++ {
			v, _, ok := m.Pop(nil)
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
		if v, _, ok := m.Pop(nil); !ok || v.msg.ID.Seq != event.Seq(want) {
			t.Fatalf("Pop = %v, %v, want seq %d", v.msg.ID, ok, want)
		}
	}
}

// TestMailboxPoppedSlotsCleared: a popped frame must not stay reachable
// from the lane's backing array.
func TestMailboxPoppedSlotsCleared(t *testing.T) {
	m := newMailbox(new(inflight))
	for i := uint64(0); i < 5; i++ {
		m.Push(transport.Message{Type: transport.MsgEvent, Event: event.Event{Payload: []byte("x")}})
		m.PushReexec(cmdReexec{t: &task{}})
	}
	for m.Len() > 0 {
		m.Pop(nil)
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
// stored by value, not boxed — and popping them allocates nothing either:
// the events of an input frame go to the caller's scratch run.
func TestMailboxSteadyStateZeroAlloc(t *testing.T) {
	m := newMailbox(new(inflight))
	tk := &task{}
	run := make([]event.Event, 0, 1)
	push := func() {
		m.Push(transport.Message{Type: transport.MsgEvent, Event: event.Event{Key: 1}})
		m.Push(transport.Message{Type: transport.MsgFinalize, Version: 1})
		m.PushReexec(cmdReexec{t: tk})
	}
	push() // warm both lanes
	for m.Len() > 0 {
		m.Pop(run)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		push()
		for i := 0; i < 3; i++ {
			if _, _, ok := m.Pop(run); !ok {
				t.Fatal("Pop failed")
			}
		}
	}); allocs != 0 {
		t.Errorf("push/pop at a warm ring allocated %.1f per round, want 0", allocs)
	}
}

func TestMailboxBlockingPop(t *testing.T) {
	m := newMailbox(new(inflight))
	got := make(chan mailItem, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, _, ok := m.Pop(nil)
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

// TestMailboxCloseDiscardsThenStops: Close drops what both lanes hold and
// returns its in-flight weight — a control item weighs 1, a data item its
// events — so that a node stops at the instant and settles what it drops.
func TestMailboxCloseDiscardsThenStops(t *testing.T) {
	led := new(inflight)
	m := newMailbox(led)
	m.Push(ctlMsg(1))
	m.Push(ctlMsg(2))
	m.Push(dataMsg(3))
	m.Push(transport.Message{Type: transport.MsgEventBatch, Events: make([]event.Event, 4)})
	if got := m.Close(); got != 2+1+4 || led.n.Load() != int64(got) {
		t.Fatalf("Close dropped weight %d with %d in flight, want 7 of 7", got, led.n.Load())
	}
	if _, _, ok := m.Pop(nil); ok {
		t.Fatal("Pop after Close returned ok")
	}
	if d := m.DataDepth(); d != 0 {
		t.Fatalf("DataDepth after Close = %d, want 0", d)
	}
	// Push after close is a silent no-op.
	m.Push(ctlMsg(3))
	if _, _, ok := m.Pop(nil); ok {
		t.Fatal("Push after Close enqueued an item")
	}
	if got := m.Close(); got != 0 {
		t.Fatalf("a second Close dropped weight %d, want 0", got)
	}
}

func TestMailboxCloseUnblocksWaiters(t *testing.T) {
	m := newMailbox(new(inflight))
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, ok := m.Pop(nil); ok {
			t.Error("Pop returned ok on close")
		}
	}()
	m.Close()
	<-done
}

func TestMailboxConcurrentProducers(t *testing.T) {
	m := newMailbox(new(inflight))
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

// dataMsg is a single EVENT frame on input 0 whose event is numbered seq.
func dataMsg(seq uint64) transport.Message { return inputMsg(0, seq) }

// inputMsg is a single EVENT frame on the given input whose event is
// numbered seq.
func inputMsg(input int, seq uint64) transport.Message {
	return transport.Message{Type: transport.MsgEvent, Input: input, Event: event.Event{ID: event.ID{Seq: event.Seq(seq)}}}
}

// batchMsg is an EVENT_BATCH frame on the given input carrying the events
// numbered from, from+1, ... for n events.
func batchMsg(input int, from uint64, n int) transport.Message {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i].ID.Seq = event.Seq(from + uint64(i))
	}
	return transport.Message{Type: transport.MsgEventBatch, Input: input, Events: evs}
}

// TestMailboxControlLanePriority: control messages overtake queued data, so
// FINALIZE/ACK/REPLAY retain progress while the data lane sits at capacity.
func TestMailboxControlLanePriority(t *testing.T) {
	m := newMailbox(new(inflight))
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
		v, evs, ok := m.Pop(nil)
		if !ok || v.msg.Type != want || len(evs) != 0 {
			t.Fatalf("Pop = %v (ok=%v) with %d events, want control %v before any data", v.msg.Type, ok, len(evs), want)
		}
	}
	if v, _, ok := m.Pop(nil); !ok {
		t.Fatal("Pop drained early")
	} else if v.reexec.t == nil {
		t.Fatalf("Pop = %v, want cmdReexec before data", v.msg.Type)
	}
	// Only then the data lane, still FIFO within itself: one input's frames
	// leave as one run.
	v, evs, ok := m.Pop(nil)
	if !ok || v.msg.Type != transport.MsgEvent || len(evs) != 4 {
		t.Fatalf("data Pop = %v with %d events, want the run of 4", v.msg.Type, len(evs))
	}
	for i, ev := range evs {
		if ev.ID.Seq != event.Seq(i) {
			t.Fatalf("event %d of the run is seq %d", i, ev.ID.Seq)
		}
	}
}

// TestMailboxRunBoundaries: a run is the data item at the head and the
// EVENT frames queued right behind it for the same input, in arrival order.
// It never spans two inputs, a source injection or more than maxRun
// events — a frame that would take it past the cap starts the next run —
// and a control item pushed before the Pop leaves ahead of it.
func TestMailboxRunBoundaries(t *testing.T) {
	m := newMailbox(new(inflight))
	seq := uint64(1)
	singles := func(input, n int) {
		for i := 0; i < n; i++ {
			m.Push(inputMsg(input, seq))
			seq++
		}
	}
	batch := func(input, n int) {
		m.Push(batchMsg(input, seq, n))
		seq += uint64(n)
	}
	singles(0, 3)
	singles(1, 2)
	batch(0, 2)
	m.PushInject(make([]event.Event, 1))
	singles(0, maxRun+6)
	singles(1, maxRun-4)
	batch(1, 8)
	m.Push(transport.Message{Type: transport.MsgFinalize})

	type want struct{ input, events int } // events 0: not a run
	wants := []want{{-1, 0}, {0, 3}, {1, 2}, {0, 2}, {-1, 0}, {0, maxRun}, {0, 6}, {1, maxRun - 4}, {1, 8}}
	next := uint64(1)
	var run []event.Event
	for i, w := range wants {
		it, evs, ok := m.Pop(run)
		if !ok {
			t.Fatalf("pop %d: mailbox closed", i)
		}
		switch {
		case i == 0 && it.msg.Type != transport.MsgFinalize:
			t.Fatalf("pop 0 is %v, want the FINALIZE pushed behind the data", it.msg.Type)
		case i == 4 && len(it.inject) != 1:
			t.Fatalf("pop 4 carries %d injected events, want the injection alone", len(it.inject))
		case len(evs) != w.events || w.events > 0 && it.msg.Input != w.input:
			t.Fatalf("pop %d: a run of %d on input %d, want %d on input %d", i, len(evs), it.msg.Input, w.events, w.input)
		}
		for _, ev := range evs {
			if ev.ID.Seq != event.Seq(next) {
				t.Fatalf("pop %d: seq %d where %d was next in arrival order", i, ev.ID.Seq, next)
			}
			next++
		}
		run = evs
	}
	if m.Len() != 0 {
		t.Fatalf("%d items left queued", m.Len())
	}
}

// TestMailboxRunAccounting: popping runs reports what popping one item at a
// time would — the data lane's occupancy after each pop, its high-water
// mark, and one queueing-delay observation per frame.
func TestMailboxRunAccounting(t *testing.T) {
	m := newMailbox(new(inflight))
	qdelay := metrics.NewHDR()
	m.SetQueueDelay(qdelay)
	frames, events := 0, 0
	for i := 0; i < 50; i++ {
		if i%7 == 3 {
			m.Push(batchMsg(i%2, uint64(events), 5))
			events += 5
		} else {
			m.Push(inputMsg(i/10%2, uint64(events)))
			events++
		}
		frames++
	}
	if h := m.DataHighWater(); h != events {
		t.Fatalf("DataHighWater = %d, want %d", h, events)
	}
	left := events
	for m.Len() > 0 {
		_, evs, _ := m.Pop(nil)
		left -= len(evs)
		if d := m.DataDepth(); d != left {
			t.Fatalf("DataDepth = %d after a run of %d, want %d", d, len(evs), left)
		}
	}
	if left != 0 || m.DataHighWater() != events {
		t.Fatalf("%d events never popped, high-water %d; want 0 and %d", left, m.DataHighWater(), events)
	}
	if got := qdelay.Count(); got != uint64(frames) {
		t.Fatalf("%d queueing delays observed, want one per frame: %d", got, frames)
	}
}

// grantCounter is a creditGranter that counts what it is asked to grant.
type grantCounter struct{ grants, credits int }

func (g *grantCounter) grant(n int) { g.grants++; g.credits += n }

// TestQueuedRunGrantsItsCredits: the dispatcher returns a run's credits to
// its input's sender once, and for exactly the events it popped.
func TestQueuedRunGrantsItsCredits(t *testing.T) {
	n, _ := classifierHop(t, 128)
	g := &grantCounter{}
	n.granters[0] = g
	events := 0
	for i := 0; i < 40; i++ {
		if i%5 == 0 {
			n.mailbox.Push(batchMsg(0, uint64(events+1), 4))
			events += 4
		} else {
			n.mailbox.Push(inputMsg(0, uint64(events+1)))
			events++
		}
	}
	var run []event.Event
	pops, popped := 0, 0
	for n.mailbox.Len() > 0 {
		var k int
		run, k = popDispatch(t, n, run)
		if k > 0 { // not a commit notice the log's callback queued meanwhile
			pops, popped = pops+1, popped+k
		}
	}
	if popped != events || g.credits != events || g.grants != pops {
		t.Fatalf("%d events popped in %d runs; %d credits granted in %d grants; want %d events, one grant a run",
			popped, pops, g.credits, g.grants, events)
	}
	if got := n.cDispatched.Load(); got != uint64(events) {
		t.Fatalf("admitted %d events, want %d", got, events)
	}
}

// TestMailboxDataAccounting: the data lane tracks occupancy, high-water
// and overshoot against its configured capacity without ever rejecting —
// the hard bound lives at the upstream credit gates.
func TestMailboxDataAccounting(t *testing.T) {
	m := newMailbox(new(inflight))
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
	// The injection, then the three frames as one run.
	for i := 0; i < 2; i++ {
		if _, _, ok := m.Pop(nil); !ok {
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
// mailbox in place; nothing queued pre-crash survives the close and the
// reopen (upstream replays the unacknowledged events).
func TestMailboxReopenDiscardsBothLanes(t *testing.T) {
	m := newMailbox(new(inflight))
	m.Push(dataMsg(1))
	m.Push(transport.Message{Type: transport.MsgFinalize})
	m.Close()
	m.Reopen()
	if m.Len() != 0 {
		t.Fatalf("Len after Reopen = %d, want 0", m.Len())
	}
	m.Push(dataMsg(2))
	if v, _, ok := m.Pop(nil); !ok || v.msg.Event.ID.Seq != 2 {
		t.Fatalf("reopened mailbox Pop = %v, %v", v.msg.Event.ID, ok)
	}
}
