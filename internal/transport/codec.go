package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"streammine/internal/event"
)

// Wire format: each frame is
//
//	length uint32   (bytes after this field)
//	type   uint8
//	body   (event encoding for MsgEvent; fixed control tuple otherwise)
const (
	controlBody = 4 + 8 + 4 // source, seq, version
	// maxFrameSize is the sanity cap on a frame length prefix. Batch
	// frames carry several events, so the cap leaves room for a few
	// maximum-size payloads rather than exactly one.
	maxFrameSize = 4 + 1 + 4 + 4*(event.MaxPayload+64)
)

// ErrFrameTooLarge reports a frame length prefix exceeding the sanity cap.
var ErrFrameTooLarge = errors.New("transport: frame too large")

// EncodeMessage appends the wire form of m to dst.
func EncodeMessage(dst []byte, m Message) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(m.Type)) // length patched below
	switch m.Type {
	case MsgEvent:
		dst = m.Event.Encode(dst)
	case MsgEventBatch:
		dst = event.EncodeBatch(dst, m.Events)
	case MsgFinalizeBatch, MsgAckBatch:
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(m.Finals)))
		dst = append(dst, n[:]...)
		for _, f := range m.Finals {
			var b [controlBody]byte
			binary.LittleEndian.PutUint32(b[0:], uint32(f.ID.Source))
			binary.LittleEndian.PutUint64(b[4:], uint64(f.ID.Seq))
			binary.LittleEndian.PutUint32(b[12:], uint32(f.Version))
			dst = append(dst, b[:]...)
		}
	case MsgHello, MsgRegister, MsgAssign, MsgStart, MsgStatus, MsgStop:
		dst = append(dst, m.Payload...)
	default:
		var b [controlBody]byte
		binary.LittleEndian.PutUint32(b[0:], uint32(m.ID.Source))
		binary.LittleEndian.PutUint64(b[4:], uint64(m.ID.Seq))
		binary.LittleEndian.PutUint32(b[12:], uint32(m.Version))
		dst = append(dst, b[:]...)
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// DecodeMessage parses one frame from src, returning the message and bytes
// consumed. Single-event payloads are copied (frames outlive read
// buffers). Batched event payloads are NOT copied: they alias src — the
// zero-copy path; callers decoding from a reused buffer must clone batch
// events before the next frame overwrites it.
func DecodeMessage(src []byte) (Message, int, error) {
	return decode(src, true)
}

// decode is DecodeMessage; without detach a single event's payload aliases
// src as a batch's do, for a caller that hands src over with the message.
func decode(src []byte, detach bool) (Message, int, error) {
	if len(src) < 5 {
		return Message{}, 0, event.ErrShortBuffer
	}
	length := binary.LittleEndian.Uint32(src)
	if length > maxFrameSize {
		return Message{}, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, length)
	}
	if length < 1 { // the length covers at least the type byte
		return Message{}, 0, event.ErrShortBuffer
	}
	if len(src) < 4+int(length) {
		return Message{}, 0, event.ErrShortBuffer
	}
	m := Message{Type: MsgType(src[4])}
	body := src[5 : 4+length]
	switch m.Type {
	case MsgEvent:
		e, _, err := event.Decode(body)
		if err != nil {
			return Message{}, 0, fmt.Errorf("decode event frame: %w", err)
		}
		if detach {
			e = e.Clone()
		}
		m.Event = e
	case MsgEventBatch:
		evs, n, err := event.DecodeBatch(body)
		if err != nil {
			return Message{}, 0, fmt.Errorf("decode batch frame: %w", err)
		}
		if n != len(body) {
			return Message{}, 0, fmt.Errorf("decode batch frame: %d trailing bytes", len(body)-n)
		}
		m.Events = evs // zero-copy: payloads alias the frame buffer
	case MsgFinalizeBatch, MsgAckBatch:
		if len(body) < 4 {
			return Message{}, 0, event.ErrShortBuffer
		}
		count := binary.LittleEndian.Uint32(body)
		if int(count)*controlBody != len(body)-4 {
			return Message{}, 0, event.ErrShortBuffer
		}
		m.Finals = make([]FinalizeRef, count)
		for i := range m.Finals {
			rec := body[4+i*controlBody:]
			m.Finals[i] = FinalizeRef{
				ID: event.ID{
					Source: event.SourceID(binary.LittleEndian.Uint32(rec[0:])),
					Seq:    event.Seq(binary.LittleEndian.Uint64(rec[4:])),
				},
				Version: event.Version(binary.LittleEndian.Uint32(rec[12:])),
			}
		}
	case MsgHello, MsgRegister, MsgAssign, MsgStart, MsgStatus, MsgStop:
		if len(body) > 0 {
			m.Payload = make([]byte, len(body)) // detach from the read buffer
			copy(m.Payload, body)
		}
	case MsgFinalize, MsgRevoke, MsgAck, MsgReplay, MsgHeartbeat, MsgCredit:
		if len(body) < controlBody {
			return Message{}, 0, event.ErrShortBuffer
		}
		m.ID = event.ID{
			Source: event.SourceID(binary.LittleEndian.Uint32(body[0:])),
			Seq:    event.Seq(binary.LittleEndian.Uint64(body[4:])),
		}
		m.Version = event.Version(binary.LittleEndian.Uint32(body[12:]))
	default:
		return Message{}, 0, fmt.Errorf("transport: unknown message type %d", src[4])
	}
	return m, 4 + int(length), nil
}

// WriteMessage writes one frame to w, encoding through a pooled scratch
// buffer so steady-state sends do not allocate per frame.
func WriteMessage(w io.Writer, m Message) error {
	buf := event.GetBuffer()
	buf = EncodeMessage(buf, m)
	_, err := w.Write(buf)
	event.PutBuffer(buf)
	if err != nil {
		return fmt.Errorf("write frame: %w", err)
	}
	return nil
}

// ReadMessage reads one complete frame from r, into a fresh buffer it never
// reuses: the events decoded from it, one or a batch, alias that buffer and
// own it collectively.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	length := binary.LittleEndian.Uint32(hdr[:])
	if length > maxFrameSize {
		return Message{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, length)
	}
	body := make([]byte, 4+length)
	copy(body, hdr[:])
	if _, err := io.ReadFull(r, body[4:]); err != nil {
		return Message{}, err
	}
	m, _, err := decode(body, false)
	return m, err
}
