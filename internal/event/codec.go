package event

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Binary layout (little endian):
//
//	source    uint32
//	seq       uint64
//	timestamp int64
//	version   uint32
//	flags     uint8   (bit 0: speculative, bit 1: traced)
//	key       uint64
//	plen      uint32
//	payload   plen bytes
//	trace     uint64  (present only when bit 1 of flags is set)
//
// The trace trailer is versioned by its flag bit, like the CREDIT message
// kind: old decoders never see the bit set by old encoders, and new
// decoders only read the trailer when the bit is present, so mixed-version
// peers interoperate (an old decoder receiving a traced frame would fail
// ErrShortBuffer rather than misparse, since the flag gate keeps the
// trailer out of the payload length).
const headerSize = 4 + 8 + 8 + 4 + 1 + 8 + 4

const (
	flagSpeculative = 1 << 0
	flagTraced      = 1 << 1
)

// traceSize is the length of the optional trace trailer.
const traceSize = 8

// MaxPayload bounds the payload size accepted by the codec. It protects the
// transport against corrupt length prefixes.
const MaxPayload = 64 << 20

var (
	// ErrShortBuffer is returned when decoding input that is too small to
	// hold the encoded event it claims to contain.
	ErrShortBuffer = errors.New("event: short buffer")
	// ErrPayloadTooLarge is returned when a length prefix exceeds MaxPayload.
	ErrPayloadTooLarge = errors.New("event: payload too large")
)

// Encode appends the binary form of e to dst and returns the extended
// slice. Encode never fails.
func (e Event) Encode(dst []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(e.ID.Source))
	binary.LittleEndian.PutUint64(hdr[4:], uint64(e.ID.Seq))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(e.Timestamp))
	binary.LittleEndian.PutUint32(hdr[20:], uint32(e.Version))
	var flags uint8
	if e.Speculative {
		flags |= flagSpeculative
	}
	if e.Trace != 0 {
		flags |= flagTraced
	}
	hdr[24] = flags
	binary.LittleEndian.PutUint64(hdr[25:], e.Key)
	binary.LittleEndian.PutUint32(hdr[33:], uint32(len(e.Payload)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, e.Payload...)
	if e.Trace != 0 {
		var tr [traceSize]byte
		binary.LittleEndian.PutUint64(tr[:], e.Trace)
		dst = append(dst, tr[:]...)
	}
	return dst
}

// Decode parses one event from the front of src and returns it along with
// the number of bytes consumed. The returned event's payload aliases src;
// callers that retain the event beyond the life of src must Clone it.
func Decode(src []byte) (Event, int, error) {
	if len(src) < headerSize {
		return Event{}, 0, ErrShortBuffer
	}
	plen := binary.LittleEndian.Uint32(src[33:])
	if plen > MaxPayload {
		return Event{}, 0, fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, plen)
	}
	total := headerSize + int(plen)
	traced := src[24]&flagTraced != 0
	if traced {
		total += traceSize
	}
	if len(src) < total {
		return Event{}, 0, ErrShortBuffer
	}
	e := Event{
		ID: ID{
			Source: SourceID(binary.LittleEndian.Uint32(src[0:])),
			Seq:    Seq(binary.LittleEndian.Uint64(src[4:])),
		},
		Timestamp:   int64(binary.LittleEndian.Uint64(src[12:])),
		Version:     Version(binary.LittleEndian.Uint32(src[20:])),
		Speculative: src[24]&flagSpeculative != 0,
		Key:         binary.LittleEndian.Uint64(src[25:]),
	}
	if plen > 0 {
		e.Payload = src[headerSize : headerSize+int(plen)]
	}
	if traced {
		e.Trace = binary.LittleEndian.Uint64(src[total-traceSize:])
	}
	return e, total, nil
}

// EncodeBatch appends a length-prefixed sequence of events to dst.
func EncodeBatch(dst []byte, events []Event) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(events)))
	dst = append(dst, n[:]...)
	for _, e := range events {
		dst = e.Encode(dst)
	}
	return dst
}

// DecodeBatch parses a batch produced by EncodeBatch. Payloads alias src.
func DecodeBatch(src []byte) ([]Event, int, error) {
	if len(src) < 4 {
		return nil, 0, ErrShortBuffer
	}
	n := binary.LittleEndian.Uint32(src)
	off := 4
	events := make([]Event, 0, n)
	for i := uint32(0); i < n; i++ {
		e, consumed, err := Decode(src[off:])
		if err != nil {
			return nil, 0, fmt.Errorf("batch element %d: %w", i, err)
		}
		events = append(events, e)
		off += consumed
	}
	return events, off, nil
}
