package core

import (
	"math/bits"

	"streammine/internal/event"
)

// Everything the engine addresses by event identity — the task consuming
// an event, the output record awaiting its ACK, a stashed FINALIZE, the
// duplicate-suppression sets — is looked up in the table below instead of a
// Go map: an event.ID is 12 significant bytes whose Seq is either dense (a
// source's counter) or already splitmix output (outputID), so one multiply
// hashes it, where the map runtime hashes the padded 16-byte struct in two
// calls and then walks control-byte groups.

// hashID is the tables' one hash. The multiply spreads dense source
// sequences evenly over the top bits (Fibonacci hashing) and leaves hashed
// ones uniform; positions are taken from the top bits down.
func hashID(id event.ID) uint64 {
	return (uint64(id.Seq) ^ uint64(id.Source)<<32) * 0x9E3779B97F4A7C15
}

// idSlot is one table slot. val comes first so that a zero-size V adds
// nothing: idSlot[struct{}] is 16 pointer-free bytes. An unused slot is all
// zero.
type idSlot[V any] struct {
	val    V
	seq    event.Seq
	source event.SourceID
	used   bool
}

func (s *idSlot[V]) id() event.ID { return event.ID{Source: s.source, Seq: s.seq} }

// idTableMinSlots is the size a table materialises at on its first insert.
const idTableMinSlots = 8

// idTable maps event IDs to values: open addressing with linear probing at
// a load of at most one half, doubling when full and never shrinking. The
// zero value is an empty table that owns no memory. Deletion shifts the
// entries behind the freed slot back over it (no tombstones) and zeroes the
// slot that ends up free, so a deleted value is not kept reachable.
type idTable[V any] struct {
	slots []idSlot[V] // any length: a hash is scaled to it, not masked
	n     int
	// skip is the number of leading hash bits whoever routed an ID to this
	// table has already spent (idSet's segment depth); 0 for a table on its
	// own. All of the table's IDs agree on them, so positions start below.
	skip uint8
}

func (t *idTable[V]) len() int { return t.n }

// home scales what the hash has left to a slot: the high word of their
// product, which keeps slots in hash order.
func (t *idTable[V]) home(h uint64) int {
	hi, _ := bits.Mul64(h<<t.skip, uint64(len(t.slots)))
	return int(hi)
}

// next is the slot probed after i.
func (t *idTable[V]) next(i int) int {
	if i++; i == len(t.slots) {
		return 0
	}
	return i
}

// find returns the slot holding id, or the unused slot where its probe
// sequence ends. The table must have slots. (The step is next written out:
// with the call, find no longer fits the compiler's inlining budget.)
func (t *idTable[V]) find(h uint64, id event.ID) (int, bool) {
	for i := t.home(h); ; {
		s := &t.slots[i]
		if !s.used {
			return i, false
		}
		if s.seq == id.Seq && s.source == id.Source {
			return i, true
		}
		if i++; i == len(t.slots) {
			i = 0
		}
	}
}

func (t *idTable[V]) get(id event.ID) (v V, ok bool) {
	if t.n == 0 {
		return v, false
	}
	i, ok := t.find(hashID(id), id)
	return t.slots[i].val, ok
}

// put binds id to v, replacing what it was bound to.
func (t *idTable[V]) put(id event.ID, v V) {
	if 2*(t.n+1) > len(t.slots) {
		t.resize(max(2*len(t.slots), idTableMinSlots))
	}
	i, ok := t.find(hashID(id), id)
	if !ok {
		t.n++
	}
	t.slots[i] = idSlot[V]{val: v, seq: id.Seq, source: id.Source, used: true}
}

// reserve sizes the table to take k more bindings without growing.
func (t *idTable[V]) reserve(k int) {
	if need := 2 * (t.n + k); need > len(t.slots) {
		t.resize(max(need, idTableMinSlots))
	}
}

// resize moves the entries into a fresh slot array of the given size.
func (t *idTable[V]) resize(slots int) {
	old := t.slots
	t.slots = make([]idSlot[V], slots)
	for i := range old {
		if s := &old[i]; s.used {
			j, _ := t.find(hashID(s.id()), s.id())
			t.slots[j] = *s
		}
	}
}

// delete unbinds id, reporting whether it was bound.
func (t *idTable[V]) delete(id event.ID) bool {
	if t.n == 0 {
		return false
	}
	i, ok := t.find(hashID(id), id)
	if !ok {
		return false
	}
	// Close the gap: an entry further along the run moves into the free slot
	// i unless its home lies cyclically after i (it would become unreachable
	// from its home); the slot it leaves is the new gap.
	for j := t.next(i); t.slots[j].used; j = t.next(j) {
		home := t.home(hashID(t.slots[j].id()))
		if t.ahead(home, j) >= t.ahead(i, j) {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = idSlot[V]{}
	t.n--
	return true
}

// ahead is how many probes slot j lies after slot i.
func (t *idTable[V]) ahead(i, j int) int {
	if j < i {
		j += len(t.slots)
	}
	return j - i
}

// each calls fn for every binding, in slot order.
func (t *idTable[V]) each(fn func(id event.ID, v V)) {
	for i := range t.slots {
		if s := &t.slots[i]; s.used {
			fn(s.id(), s.val)
		}
	}
}

const (
	// idSegSlots is the size at which the first segment of an idSet stops
	// doubling and splits, and the size of the largest segment after: 64 KB
	// of slots, 2048 IDs.
	idSegSlots = 1 << 12
	// idSetMaxDepth bounds the routing bits and with them the directory
	// (512 KB of pointers, reached by uniform hashes near 10^8 IDs): IDs
	// that still share a segment then, because there are that many or
	// because their hashes agree on that many bits, double it.
	idSetMaxDepth = 16
)

// idSet is an insert-only set of event IDs for a set that only grows —
// every input an armed node committed (commitIndex). It is the same
// table, segmented so that no insert does more than a bounded amount of
// work (doubling one flat table of millions of slots would stall its
// caller, who holds the node lock, for ~100 ms): the top depth bits of the
// hash index a directory of segments; the first segment
// doubles up to idSegSlots like any table, and a full segment from then on
// splits in two by its next hash bit, doubling the directory of pointers
// when it was the only entry for the segment (extendible hashing). One
// insert thus allocates and fills at most two segments of idSegSlots slots,
// and a set of a few thousand IDs is a single small table. The zero value
// is empty and owns no memory.
//
// Hashes are uniform, so segments of one size would all fill, and split,
// within the same few percent of the set's growth: the whole set rehashed
// in a burst every time it doubles. A segment is therefore made to the
// size its place in the directory gives it (segSlots) — full size at the
// first entry, falling evenly to half of that at the last — which spreads
// the splits over the doubling: a segment born of an early split is as
// far from full as one about to split is from having split, and every
// one is between a quarter and a half full.
type idSet struct {
	// dir has 1<<depth entries; a segment routed by d = skip bits fills
	// 1<<(depth-d) consecutive ones.
	dir   []*idTable[struct{}]
	depth uint8
}

func (s *idSet) has(id event.ID) bool {
	if s.dir == nil {
		return false
	}
	h := hashID(id)
	t := s.dir[h>>(64-s.depth)]
	if t.n == 0 {
		return false
	}
	_, ok := t.find(h, id)
	return ok
}

func (s *idSet) add(id event.ID) {
	if s.dir == nil {
		s.dir = []*idTable[struct{}]{{}}
	}
	h := hashID(id)
	for {
		at := int(h >> (64 - s.depth))
		t := s.dir[at]
		if 2*(t.n+1) <= len(t.slots) || len(t.slots) <= idSegSlots/2 || t.skip == idSetMaxDepth {
			t.put(id, struct{}{})
			return
		}
		s.split(t, at)
	}
}

// reserve sizes an empty set for k IDs: a directory deep enough that the
// k IDs fill no segment past half, each segment made to its entry's size
// as a split would make it, so that later growth still splits them one at
// a time. A set that one segment holds is left to grow as usual.
func (s *idSet) reserve(k int) {
	if s.dir != nil || k <= idSegSlots/2 {
		return
	}
	var depth uint8
	for depth < idSetMaxDepth && k>>depth > idSegSlots/4 {
		depth++
	}
	s.dir, s.depth = make([]*idTable[struct{}], 1<<depth), depth
	for at := range s.dir {
		s.dir[at] = &idTable[struct{}]{skip: depth}
		s.dir[at].resize(s.segSlots(at))
	}
}

// segSlots is the size of a segment made for directory entry at.
func (s *idSet) segSlots(at int) int { return idSegSlots - idSegSlots/2*at>>s.depth }

// split replaces the full segment t, which directory entry at points to,
// by two segments routed by one more hash bit.
func (s *idSet) split(t *idTable[struct{}], at int) {
	if t.skip == s.depth {
		dir := make([]*idTable[struct{}], 2*len(s.dir))
		for i, seg := range s.dir {
			dir[2*i], dir[2*i+1] = seg, seg
		}
		s.dir, s.depth, at = dir, s.depth+1, 2*at
	}
	span := 1 << (s.depth - t.skip)
	first := at &^ (span - 1)
	var halves [2]*idTable[struct{}]
	for i := range halves {
		halves[i] = &idTable[struct{}]{skip: t.skip + 1}
		halves[i].resize(s.segSlots(first + i*span/2))
	}
	for i := range t.slots {
		if sl := &t.slots[i]; sl.used {
			halves[hashID(sl.id())<<t.skip>>63].put(sl.id(), struct{}{})
		}
	}
	for i := 0; i < span; i++ {
		s.dir[first+i] = halves[2*i/span]
	}
}

// segments calls fn for every distinct segment, in directory order.
func (s *idSet) segments(fn func(t *idTable[struct{}])) {
	for i := 0; i < len(s.dir); i += 1 << (s.depth - s.dir[i].skip) {
		fn(s.dir[i])
	}
}

func (s *idSet) len() int {
	n := 0
	s.segments(func(t *idTable[struct{}]) { n += t.n })
	return n
}
