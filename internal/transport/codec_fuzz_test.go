package transport

import (
	"bytes"
	"testing"
	"testing/quick"

	"streammine/internal/event"
)

// quickMessage maps arbitrary fuzz/quick inputs onto a valid Message of
// any wire type, so one generator covers the whole codec surface.
func quickMessage(kind uint8, src uint32, seq uint64, ver uint32, ts int64, key uint64, body []byte) Message {
	types := []MsgType{
		MsgEvent, MsgFinalize, MsgRevoke, MsgAck, MsgReplay, MsgHeartbeat,
		MsgHello, MsgRegister, MsgAssign, MsgStart, MsgStatus, MsgStop, MsgCredit,
		MsgEventBatch, MsgFinalizeBatch, MsgAckBatch, MsgRedeliver,
	}
	typ := types[int(kind)%len(types)]
	if len(body) > event.MaxPayload {
		body = body[:event.MaxPayload]
	}
	m := Message{Type: typ}
	switch typ {
	case MsgEvent:
		m.Event = event.Event{
			ID:          event.ID{Source: event.SourceID(src), Seq: event.Seq(seq)},
			Timestamp:   ts,
			Version:     event.Version(ver),
			Speculative: seq%2 == 0,
			Key:         key,
			Payload:     body,
		}
	case MsgEventBatch:
		// Batch length and per-event variation derive from the same
		// inputs, splitting the payload across the run so frames of
		// ragged occupancy get exercised.
		n := 1 + int(seq%4)
		for i := 0; i < n; i++ {
			p := body
			if len(body) > 0 {
				p = body[i*len(body)/n : (i+1)*len(body)/n]
			}
			m.Events = append(m.Events, event.Event{
				ID:          event.ID{Source: event.SourceID(src), Seq: event.Seq(seq) + event.Seq(i)},
				Timestamp:   ts + int64(i),
				Version:     event.Version(ver),
				Speculative: (seq+uint64(i))%2 == 0,
				Key:         key + uint64(i),
				Payload:     p,
			})
		}
	case MsgFinalizeBatch, MsgAckBatch:
		n := 1 + int(seq%4)
		for i := 0; i < n; i++ {
			m.Finals = append(m.Finals, FinalizeRef{
				ID:      event.ID{Source: event.SourceID(src), Seq: event.Seq(seq) + event.Seq(i)},
				Version: event.Version(ver) + event.Version(i),
			})
		}
	case MsgHello, MsgRegister, MsgAssign, MsgStart, MsgStatus, MsgStop:
		m.Payload = body
	default: // control tuple, including MsgCredit
		m.ID = event.ID{Source: event.SourceID(src), Seq: event.Seq(seq)}
		m.Version = event.Version(ver)
	}
	return m
}

// messageEqual compares the wire-visible fields of two messages.
func messageEqual(a, b Message) bool {
	if a.Type != b.Type {
		return false
	}
	switch a.Type {
	case MsgEvent:
		return a.Event.SameContent(b.Event) &&
			a.Event.Speculative == b.Event.Speculative &&
			a.Event.Version == b.Event.Version
	case MsgEventBatch:
		if len(a.Events) != len(b.Events) {
			return false
		}
		for i := range a.Events {
			if !a.Events[i].SameContent(b.Events[i]) ||
				a.Events[i].Speculative != b.Events[i].Speculative ||
				a.Events[i].Version != b.Events[i].Version {
				return false
			}
		}
		return true
	case MsgFinalizeBatch, MsgAckBatch:
		if len(a.Finals) != len(b.Finals) {
			return false
		}
		for i := range a.Finals {
			if a.Finals[i] != b.Finals[i] {
				return false
			}
		}
		return true
	case MsgHello, MsgRegister, MsgAssign, MsgStart, MsgStatus, MsgStop:
		return bytes.Equal(a.Payload, b.Payload)
	default:
		return a.ID == b.ID && a.Version == b.Version
	}
}

// TestQuickCodecAllTypes property-tests encode/decode round-trips across
// every message type, CREDIT included.
func TestQuickCodecAllTypes(t *testing.T) {
	f := func(kind uint8, src uint32, seq uint64, ver uint32, ts int64, key uint64, body []byte) bool {
		m := quickMessage(kind, src, seq, ver, ts, key, body)
		buf := EncodeMessage(nil, m)
		got, n, err := DecodeMessage(buf)
		if err != nil || n != len(buf) {
			return false
		}
		// A second frame appended to the buffer must not confuse the
		// first decode's consumed count.
		buf2 := EncodeMessage(buf, Message{Type: MsgHeartbeat})
		got1, n1, err := DecodeMessage(buf2)
		if err != nil || n1 != n || !messageEqual(got1, m) {
			return false
		}
		return messageEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestCreditRoundTrip pins the CREDIT wire form: grant count rides ID.Seq
// and the input index survives framing untouched by the codec (Input is a
// receiver-side field and must decode as zero).
func TestCreditRoundTrip(t *testing.T) {
	m := Message{Type: MsgCredit, ID: event.ID{Source: 7, Seq: 42}}
	buf := EncodeMessage(nil, m)
	got, n, err := DecodeMessage(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Fatalf("consumed %d of %d", n, len(buf))
	}
	if got.Type != MsgCredit || got.ID.Source != 7 || got.ID.Seq != 42 {
		t.Fatalf("round-trip = %+v", got)
	}
	if got.Input != 0 {
		t.Fatalf("Input leaked onto the wire: %d", got.Input)
	}
	if MsgCredit.String() != "CREDIT" {
		t.Fatalf("MsgCredit.String() = %q", MsgCredit.String())
	}
}

// TestBatchFrameTornAndInterleaved pins the batch frames' failure and
// framing behavior: every strict prefix of an encoded batch frame must
// fail to decode cleanly (a torn tail can never yield a shorter batch),
// and batch frames interleave with legacy frames on one stream without
// disturbing either side's consumed count.
func TestBatchFrameTornAndInterleaved(t *testing.T) {
	evs := []event.Event{
		{ID: event.ID{Source: 1, Seq: 10}, Timestamp: 5, Speculative: true, Key: 3, Payload: []byte("alpha")},
		{ID: event.ID{Source: 1, Seq: 11}, Timestamp: 6, Key: 4, Payload: []byte("beta")},
		{ID: event.ID{Source: 1, Seq: 12}, Timestamp: 7, Payload: []byte("gamma")},
	}
	for _, m := range []Message{
		{Type: MsgEventBatch, Events: evs},
		{Type: MsgFinalizeBatch, Finals: []FinalizeRef{{ID: evs[0].ID, Version: 2}, {ID: evs[1].ID, Version: 3}}},
		{Type: MsgAckBatch, Finals: []FinalizeRef{{ID: evs[0].ID}, {ID: evs[1].ID}, {ID: evs[2].ID}}},
	} {
		frame := EncodeMessage(nil, m)
		for cut := 0; cut < len(frame); cut++ {
			if _, _, err := DecodeMessage(frame[:cut]); err == nil {
				t.Fatalf("%v: torn frame cut at %d/%d decoded successfully", m.Type, cut, len(frame))
			}
		}
	}

	// One stream: legacy EVENT, EVENT_BATCH, legacy FINALIZE,
	// FINALIZE_BATCH — old and new frames must coexist.
	stream := EncodeMessage(nil, Message{Type: MsgEvent, Event: evs[0]})
	stream = EncodeMessage(stream, Message{Type: MsgEventBatch, Events: evs})
	stream = EncodeMessage(stream, Message{Type: MsgFinalize, ID: evs[0].ID, Version: 1})
	stream = EncodeMessage(stream, Message{Type: MsgFinalizeBatch, Finals: []FinalizeRef{{ID: evs[2].ID, Version: 9}}})
	want := []MsgType{MsgEvent, MsgEventBatch, MsgFinalize, MsgFinalizeBatch}
	for i := 0; len(stream) > 0; i++ {
		m, n, err := DecodeMessage(stream)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i >= len(want) || m.Type != want[i] {
			t.Fatalf("frame %d: type %v, want %v", i, m.Type, want[i])
		}
		if m.Type == MsgEventBatch {
			if len(m.Events) != len(evs) {
				t.Fatalf("batch decoded %d events, want %d", len(m.Events), len(evs))
			}
			for j := range evs {
				if !m.Events[j].SameContent(evs[j]) {
					t.Fatalf("batch event %d content mismatch", j)
				}
			}
		}
		stream = stream[n:]
	}
}

// FuzzDecodeMessage fuzzes the frame decoder: arbitrary bytes must never
// panic, and any frame that decodes successfully must re-encode and
// decode to an equal message (round-trip stability).
func FuzzDecodeMessage(f *testing.F) {
	// Seed corpus: one valid frame of every message type plus structural
	// edge cases.
	for kind := uint8(0); kind < uint8(maxMsgType); kind++ {
		m := quickMessage(kind, 3, 9, 2, 77, 5, []byte("seed"))
		f.Add(EncodeMessage(nil, m))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	f.Add(EncodeMessage(nil, Message{Type: MsgCredit, ID: event.ID{Source: 1, Seq: 64}}))
	f.Add(EncodeMessage(nil, Message{Type: MsgRedeliver}))
	// Batch edge cases: a torn batch frame (truncated mid-events), a batch
	// whose declared count exceeds its body, and a legacy frame interleaved
	// after a batch frame in one buffer.
	batch := EncodeMessage(nil, quickMessage(13, 3, 2, 1, 9, 4, []byte("torn-batch-payload")))
	f.Add(batch[:len(batch)/2])
	f.Add(batch[:len(batch)-1])
	f.Add(EncodeMessage(batch, Message{Type: MsgFinalize, ID: event.ID{Source: 3, Seq: 4}, Version: 2}))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, n, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		buf := EncodeMessage(nil, m)
		got, n2, err := DecodeMessage(buf)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if n2 != len(buf) {
			t.Fatalf("re-decode consumed %d of %d", n2, len(buf))
		}
		if !messageEqual(got, m) {
			t.Fatalf("round-trip mismatch: %+v vs %+v", got, m)
		}
	})
}
