package operator

import "encoding/binary"

// EncodeValue packs a uint64 into the canonical 8-byte payload used by the
// numeric built-in operators and the experiment workloads.
func EncodeValue(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// valuePayload and pairPayload are EncodeValue and EncodePair into the
// context's payload memory: what the built-in operators emit.
func valuePayload(ctx Context, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(ctx.Payload(8)[:0], v)
}

func pairPayload(ctx Context, a, b uint64) []byte {
	p := binary.LittleEndian.AppendUint64(ctx.Payload(16)[:0], a)
	return binary.LittleEndian.AppendUint64(p, b)
}

// DecodeValue unpacks a payload produced by EncodeValue. Short payloads
// decode as zero-extended.
func DecodeValue(p []byte) uint64 {
	var b [8]byte
	copy(b[:], p)
	return binary.LittleEndian.Uint64(b[:])
}

// EncodePair packs two uint64s (used by join and window outputs).
func EncodePair(a, b uint64) []byte {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], a)
	binary.LittleEndian.PutUint64(buf[8:], b)
	return buf[:]
}

// DecodePair unpacks an EncodePair payload.
func DecodePair(p []byte) (uint64, uint64) {
	var buf [16]byte
	copy(buf[:], p)
	return binary.LittleEndian.Uint64(buf[:8]), binary.LittleEndian.Uint64(buf[8:])
}
