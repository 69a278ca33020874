// Package checkpoint implements operator-state snapshots. A stateful
// operator is periodically checkpointed so that upstream output buffers
// and the decision log can be pruned: after a failure the operator
// restores its latest snapshot and replays only events logged after it
// (paper §2.2).
//
// A snapshot captures everything needed to resume deterministically: the
// transactional-memory image, the PRNG state, the per-input replay
// positions, and the decision-log LSN the snapshot covers.
package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"streammine/internal/event"
)

// Snapshot is one checkpoint of one operator.
type Snapshot struct {
	// Operator identifies the checkpointed operator instance.
	Operator uint32
	// Epoch is the checkpoint sequence number (monotonic per operator).
	Epoch uint64
	// CoveredLSN is the decision-log position the snapshot covers: records
	// at or below it are redundant after restore.
	CoveredLSN uint64
	// RandState is the operator PRNG state at snapshot time.
	RandState uint64
	// Timestamp is the operator's logical time at snapshot time.
	Timestamp int64
	// Memory is the transactional-memory image.
	Memory []uint64
	// InputPositions records, per input index, the last event consumed
	// before the snapshot; replay starts after these.
	InputPositions map[int]event.ID
	// Outputs are the committed-but-unacknowledged output-buffer records at
	// snapshot time, in emission order. Without them a crash would lose
	// outputs whose inputs the snapshot covers: the inputs are pruned
	// upstream and replay starts after the covering point, so nothing could
	// regenerate them.
	Outputs []Output
}

// Output is one retained output-buffer record carried in a snapshot.
type Output struct {
	// ID is the output event's identity.
	ID event.ID
	// Port is the output port the event was emitted on.
	Port int
	// Timestamp is the event's logical timestamp.
	Timestamp int64
	// Key is the event's partition key.
	Key uint64
	// Version is the event's final version number.
	Version uint32
	// Trace is the event's lineage trace id (0 = untraced), preserved so
	// replayed outputs keep stitching into their original lineage.
	Trace uint64
	// Payload is the event payload.
	Payload []byte
}

// ErrCorrupt reports a snapshot that fails structural or checksum
// validation.
var ErrCorrupt = errors.New("checkpoint: corrupt snapshot")

// ErrNotFound reports that no snapshot exists for the requested operator.
var ErrNotFound = errors.New("checkpoint: not found")

// Encode serializes the snapshot with a trailing CRC.
func Encode(s *Snapshot) []byte {
	size := 4 + 8 + 8 + 8 + 8 + 4 + len(s.Memory)*8 + 4 + len(s.InputPositions)*16 + 4
	for _, o := range s.Outputs {
		size += 52 + len(o.Payload)
	}
	buf := make([]byte, 0, size)
	var w [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(w[:4], v)
		buf = append(buf, w[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		buf = append(buf, w[:]...)
	}
	put32(s.Operator)
	put64(s.Epoch)
	put64(s.CoveredLSN)
	put64(s.RandState)
	put64(uint64(s.Timestamp))
	put32(uint32(len(s.Memory)))
	for _, v := range s.Memory {
		put64(v)
	}
	put32(uint32(len(s.InputPositions)))
	// Deterministic order for reproducible images.
	idxs := make([]int, 0, len(s.InputPositions))
	for i := range s.InputPositions {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		id := s.InputPositions[i]
		put32(uint32(i))
		put32(uint32(id.Source))
		put64(uint64(id.Seq))
	}
	put32(uint32(len(s.Outputs)))
	for _, o := range s.Outputs {
		put32(uint32(o.ID.Source))
		put64(uint64(o.ID.Seq))
		put32(uint32(o.Port))
		put64(uint64(o.Timestamp))
		put64(o.Key)
		put32(o.Version)
		put64(o.Trace)
		put32(uint32(len(o.Payload)))
		buf = append(buf, o.Payload...)
	}
	put32(crc32.ChecksumIEEE(buf))
	return buf
}

// Decode parses an encoded snapshot, verifying the checksum.
func Decode(data []byte) (*Snapshot, error) {
	if len(data) < 44 {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	off := 0
	need := func(n int) error {
		if off+n > len(body) {
			return fmt.Errorf("%w: truncated at %d", ErrCorrupt, off)
		}
		return nil
	}
	get32 := func() uint32 {
		v := binary.LittleEndian.Uint32(body[off:])
		off += 4
		return v
	}
	get64 := func() uint64 {
		v := binary.LittleEndian.Uint64(body[off:])
		off += 8
		return v
	}
	if err := need(40); err != nil {
		return nil, err
	}
	s := &Snapshot{
		Operator: get32(),
		Epoch:    get64(),
	}
	s.CoveredLSN = get64()
	s.RandState = get64()
	s.Timestamp = int64(get64())
	memLen := int(get32())
	if err := need(memLen * 8); err != nil {
		return nil, err
	}
	s.Memory = make([]uint64, memLen)
	for i := range s.Memory {
		s.Memory[i] = get64()
	}
	if err := need(4); err != nil {
		return nil, err
	}
	posLen := int(get32())
	if err := need(posLen * 16); err != nil {
		return nil, err
	}
	s.InputPositions = make(map[int]event.ID, posLen)
	for i := 0; i < posLen; i++ {
		idx := int(get32())
		src := get32()
		seq := get64()
		s.InputPositions[idx] = event.ID{Source: event.SourceID(src), Seq: event.Seq(seq)}
	}
	if err := need(4); err != nil {
		return nil, err
	}
	outLen := int(get32())
	for i := 0; i < outLen; i++ {
		if err := need(48); err != nil {
			return nil, err
		}
		var o Output
		o.ID = event.ID{Source: event.SourceID(get32()), Seq: event.Seq(get64())}
		o.Port = int(get32())
		o.Timestamp = int64(get64())
		o.Key = get64()
		o.Version = get32()
		o.Trace = get64()
		plen := int(get32())
		if err := need(plen); err != nil {
			return nil, err
		}
		if plen > 0 {
			o.Payload = append([]byte(nil), body[off:off+plen]...)
			off += plen
		}
		s.Outputs = append(s.Outputs, o)
	}
	if off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-off)
	}
	return s, nil
}

// Store persists the latest snapshot per operator. Implementations must be
// safe for concurrent use.
type Store interface {
	// Save persists s as the operator's latest snapshot.
	Save(s *Snapshot) error
	// Latest returns the operator's most recent snapshot, or ErrNotFound.
	Latest(operator uint32) (*Snapshot, error)
}

// MemStore is an in-memory Store (the default for simulations; the paper's
// experiments likewise simulate checkpoint storage).
type MemStore struct {
	mu   sync.Mutex
	byOp map[uint32][]byte
}

var _ Store = (*MemStore)(nil)

// NewMemStore returns an empty store.
func NewMemStore() *MemStore {
	return &MemStore{byOp: make(map[uint32][]byte)}
}

// Save encodes and retains the snapshot, replacing any previous one for
// the same operator (older epochs are rejected).
func (st *MemStore) Save(s *Snapshot) error {
	data := Encode(s)
	st.mu.Lock()
	defer st.mu.Unlock()
	if prev, ok := st.byOp[s.Operator]; ok {
		old, err := Decode(prev)
		if err == nil && old.Epoch >= s.Epoch {
			return fmt.Errorf("checkpoint: stale epoch %d (have %d)", s.Epoch, old.Epoch)
		}
	}
	st.byOp[s.Operator] = data
	return nil
}

// Latest decodes the operator's most recent snapshot.
func (st *MemStore) Latest(operator uint32) (*Snapshot, error) {
	st.mu.Lock()
	data, ok := st.byOp[operator]
	st.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: operator %d", ErrNotFound, operator)
	}
	return Decode(data)
}
