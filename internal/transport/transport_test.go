package transport

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"streammine/internal/event"
)

func sampleEvent() event.Event {
	return event.Event{
		ID: event.ID{Source: 3, Seq: 9}, Timestamp: 77, Version: 2,
		Speculative: true, Key: 5, Payload: []byte("hello"),
	}
}

func TestMessageCodecRoundTrip(t *testing.T) {
	msgs := []Message{
		{Type: MsgEvent, Event: sampleEvent()},
		{Type: MsgFinalize, ID: event.ID{Source: 1, Seq: 2}, Version: 3},
		{Type: MsgRevoke, ID: event.ID{Source: 4, Seq: 5}, Version: 6},
		{Type: MsgAck, ID: event.ID{Source: 7, Seq: 8}},
		{Type: MsgReplay, ID: event.ID{Source: 9, Seq: 10}},
	}
	for _, m := range msgs {
		buf := EncodeMessage(nil, m)
		got, n, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("%s: %v", m.Type, err)
		}
		if n != len(buf) {
			t.Fatalf("%s: consumed %d of %d", m.Type, n, len(buf))
		}
		if got.Type != m.Type || got.ID != m.ID || got.Version != m.Version {
			t.Fatalf("%s: got %+v want %+v", m.Type, got, m)
		}
		if m.Type == MsgEvent && !got.Event.SameContent(m.Event) {
			t.Fatalf("event mismatch: %+v vs %+v", got.Event, m.Event)
		}
	}
}

func TestDecodeMessageErrors(t *testing.T) {
	if _, _, err := DecodeMessage(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	buf := EncodeMessage(nil, Message{Type: MsgAck, ID: event.ID{Source: 1, Seq: 1}})
	if _, _, err := DecodeMessage(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated frame accepted")
	}
	bad := append([]byte(nil), buf...)
	bad[4] = 99
	if _, _, err := DecodeMessage(bad); err == nil {
		t.Fatal("unknown type accepted")
	}
	huge := append([]byte(nil), buf...)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := DecodeMessage(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame = %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodedEventDetached(t *testing.T) {
	buf := EncodeMessage(nil, Message{Type: MsgEvent, Event: sampleEvent()})
	got, _, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0
	}
	if string(got.Event.Payload) != "hello" {
		t.Fatal("decoded event aliases the input buffer")
	}
}

// TestReadMessageEventAllocs: reading a single EVENT costs the frame buffer
// and the length prefix (which escapes through the io.Reader) and no third
// allocation — the payload aliases the buffer, as a batch's payloads do, and
// since the buffer is the frame's alone it is as detached from the stream as
// the copy DecodeMessage makes (and keeps making).
func TestReadMessageEventAllocs(t *testing.T) {
	frame := EncodeMessage(nil, Message{Type: MsgEvent, Event: sampleEvent()})
	const runs = 200
	stream := bytes.Repeat(frame, runs+1) // AllocsPerRun adds a warm-up run
	r := bytes.NewReader(stream)
	var got Message
	allocs := testing.AllocsPerRun(runs, func() {
		var err error
		if got, err = ReadMessage(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("ReadMessage allocated %.0f for a single EVENT, want 2: the length prefix and the frame buffer", allocs)
	}
	clear(stream)
	if string(got.Event.Payload) != "hello" {
		t.Error("the event read last aliases the stream")
	}
	if allocs := testing.AllocsPerRun(runs, func() { got, _, _ = DecodeMessage(frame) }); allocs != 1 {
		t.Errorf("DecodeMessage allocated %.0f for a single EVENT, want 1: the detached payload", allocs)
	}
}

func TestStreamReadWrite(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		{Type: MsgEvent, Event: sampleEvent()},
		{Type: MsgFinalize, ID: event.ID{Source: 1, Seq: 2}, Version: 1},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type {
			t.Fatalf("type %v want %v", got.Type, want.Type)
		}
	}
}

func TestPipeDelivery(t *testing.T) {
	var mu sync.Mutex
	var atB []Message
	done := make(chan struct{}, 8)
	a, b := Pipe(nil, func(m Message) {
		mu.Lock()
		atB = append(atB, m)
		mu.Unlock()
		done <- struct{}{}
	})
	defer a.Close()
	defer b.Close()
	if err := a.Send(Message{Type: MsgEvent, Event: sampleEvent()}); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(Message{Type: MsgAck, ID: event.ID{Source: 1, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("message not delivered")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(atB) != 2 || atB[0].Type != MsgEvent || atB[1].Type != MsgAck {
		t.Fatalf("delivered = %+v", atB)
	}
}

func TestPipeBidirectional(t *testing.T) {
	gotA := make(chan Message, 1)
	gotB := make(chan Message, 1)
	a, b := Pipe(func(m Message) { gotA <- m }, func(m Message) { gotB <- m })
	defer a.Close()
	defer b.Close()
	if err := a.Send(Message{Type: MsgAck, ID: event.ID{Source: 1, Seq: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(Message{Type: MsgReplay, ID: event.ID{Source: 2, Seq: 2}}); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-gotB:
		if m.Type != MsgAck {
			t.Fatalf("b got %v", m.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("b timed out")
	}
	select {
	case m := <-gotA:
		if m.Type != MsgReplay {
			t.Fatalf("a got %v", m.Type)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a timed out")
	}
}

func TestPipeSendAfterClose(t *testing.T) {
	a, b := Pipe(nil, nil)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(Message{Type: MsgAck}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double Close = %v", err)
	}
	_ = b.Close()
}

func TestPipeSendToClosedPeer(t *testing.T) {
	a, b := Pipe(nil, nil)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// Fill beyond any buffer: must eventually return ErrClosed, not hang.
	var err error
	for i := 0; i < 2000; i++ {
		if err = a.Send(Message{Type: MsgAck}); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Send to closed peer = %v, want ErrClosed", err)
	}
	_ = a.Close()
}

func TestTCPRoundTrip(t *testing.T) {
	received := make(chan Message, 16)
	srv, err := Listen("127.0.0.1:0", func(m Message) { received <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	want := Message{Type: MsgEvent, Event: sampleEvent()}
	if err := client.Send(want); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-received:
		if got.Type != MsgEvent || !got.Event.SameContent(want.Event) {
			t.Fatalf("got %+v", got)
		}
		if !got.Event.Speculative || got.Event.Version != want.Event.Version {
			t.Fatal("speculation metadata lost in transit")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timed out")
	}
}

func TestTCPManyMessagesInOrder(t *testing.T) {
	received := make(chan Message, 1024)
	srv, err := Listen("127.0.0.1:0", func(m Message) { received <- m })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const n = 500
	for i := 0; i < n; i++ {
		e := event.New(event.ID{Source: 1, Seq: event.Seq(i)}, int64(i), nil)
		if err := client.Send(Message{Type: MsgEvent, Event: e}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case got := <-received:
			if got.Event.ID.Seq != event.Seq(i) {
				t.Fatalf("message %d arrived out of order: seq %d", i, got.Event.ID.Seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out at message %d", i)
		}
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	srv, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if err := client.Send(Message{Type: MsgAck}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
}

func TestDialUnreachable(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", nil); err == nil {
		t.Fatal("Dial to closed port succeeded")
	}
}

// TestQuickControlCodec property-tests the control-message codec.
func TestQuickControlCodec(t *testing.T) {
	f := func(kind uint8, src uint32, seq uint64, ver uint32) bool {
		types := []MsgType{MsgFinalize, MsgRevoke, MsgAck, MsgReplay}
		m := Message{
			Type:    types[int(kind)%len(types)],
			ID:      event.ID{Source: event.SourceID(src), Seq: event.Seq(seq)},
			Version: event.Version(ver),
		}
		buf := EncodeMessage(nil, m)
		got, n, err := DecodeMessage(buf)
		return err == nil && n == len(buf) && got.Type == m.Type && got.ID == m.ID && got.Version == m.Version
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgEvent.String() != "EVENT" || MsgType(77).String() != "msg(77)" {
		t.Fatal("MsgType.String broken")
	}
}
