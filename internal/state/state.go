// Package state provides typed containers layered over the word-granular
// transactional memory (internal/stm): scalar fields, arrays and hash
// maps. Operators build their local state from these so that
// every state access flows through a transaction — the Go equivalent of
// the paper's compile-time instrumentation of C operators.
//
// All accessors take the current transaction; errors from the underlying
// STM (notably stm.ErrConflict) must be propagated so the engine can abort
// and re-execute the enclosing event.
package state

import (
	"errors"
	"fmt"

	"streammine/internal/stm"
)

// ErrFull is returned when a fixed-capacity container cannot accept more
// entries.
var ErrFull = errors.New("state: container full")

// Field is a single transactional 64-bit word.
type Field struct {
	addr stm.Addr
}

// NewField allocates a field initialized to zero.
func NewField(m *stm.Memory) (Field, error) {
	addr, err := m.Alloc(1)
	if err != nil {
		return Field{}, fmt.Errorf("alloc field: %w", err)
	}
	Names(m).add("field", addr, 1, 1)
	return Field{addr: addr}, nil
}

// Named labels the field in m's address map (conflict attribution).
func (f Field) Named(m *stm.Memory, name string) Field {
	Names(m).rename(f.addr, name)
	return f
}

// Get reads the field.
func (f Field) Get(tx *stm.Tx) (uint64, error) { return tx.Read(f.addr) }

// Set writes the field.
func (f Field) Set(tx *stm.Tx, v uint64) error { return tx.Write(f.addr, v) }

// Add increments the field by delta and returns the new value.
func (f Field) Add(tx *stm.Tx, delta uint64) (uint64, error) {
	v, err := tx.Read(f.addr)
	if err != nil {
		return 0, err
	}
	v += delta
	if err := tx.Write(f.addr, v); err != nil {
		return 0, err
	}
	return v, nil
}

// Array is a fixed-length sequence of transactional words.
type Array struct {
	base stm.Addr
	n    int
}

// NewArray allocates n zeroed words.
func NewArray(m *stm.Memory, n int) (Array, error) {
	if n <= 0 {
		return Array{}, fmt.Errorf("array length %d: %w", n, stm.ErrBadAddr)
	}
	base, err := m.Alloc(n)
	if err != nil {
		return Array{}, fmt.Errorf("alloc array: %w", err)
	}
	Names(m).add("array", base, n, 1)
	return Array{base: base, n: n}, nil
}

// Named labels the array in m's address map (conflict attribution).
func (a Array) Named(m *stm.Memory, name string) Array {
	Names(m).rename(a.base, name)
	return a
}

// Len returns the array length.
func (a Array) Len() int { return a.n }

// Get reads element i.
func (a Array) Get(tx *stm.Tx, i int) (uint64, error) {
	if i < 0 || i >= a.n {
		return 0, fmt.Errorf("array index %d of %d: %w", i, a.n, stm.ErrBadAddr)
	}
	return tx.Read(a.base + stm.Addr(i))
}

// Set writes element i.
func (a Array) Set(tx *stm.Tx, i int, v uint64) error {
	if i < 0 || i >= a.n {
		return fmt.Errorf("array index %d of %d: %w", i, a.n, stm.ErrBadAddr)
	}
	return tx.Write(a.base+stm.Addr(i), v)
}

// Add increments element i by delta, returning the new value.
func (a Array) Add(tx *stm.Tx, i int, delta uint64) (uint64, error) {
	v, err := a.Get(tx, i)
	if err != nil {
		return 0, err
	}
	v += delta
	return v, a.Set(tx, i, v)
}

// Map is a fixed-capacity open-addressing hash map from uint64 keys to
// uint64 values, stored as (state, key, value) bucket triples in
// transactional memory. Linear probing; Clear empties it.
type Map struct {
	base    stm.Addr
	buckets int
}

// Bucket states.
const (
	bucketEmpty uint64 = iota
	bucketUsed
)

const bucketWords = 3

// NewMap allocates a map with the given bucket count. Capacity for entries
// is the bucket count; inserting into a full map returns ErrFull. For good
// probe behaviour size it at ~2× the expected entry count.
func NewMap(m *stm.Memory, buckets int) (Map, error) {
	if buckets <= 0 {
		return Map{}, fmt.Errorf("map buckets %d: %w", buckets, stm.ErrBadAddr)
	}
	base, err := m.Alloc(buckets * bucketWords)
	if err != nil {
		return Map{}, fmt.Errorf("alloc map: %w", err)
	}
	Names(m).add("map", base, buckets*bucketWords, bucketWords)
	return Map{base: base, buckets: buckets}, nil
}

// Named labels the map in m's address map (conflict attribution).
func (mp Map) Named(m *stm.Memory, name string) Map {
	Names(m).rename(mp.base, name)
	return mp
}

func (mp Map) slot(i int) stm.Addr {
	return mp.base + stm.Addr(i*bucketWords)
}

func hashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	return k
}

// Get looks up k, returning (value, found).
func (mp Map) Get(tx *stm.Tx, k uint64) (uint64, bool, error) {
	start := int(hashKey(k) % uint64(mp.buckets))
	for probe := 0; probe < mp.buckets; probe++ {
		s := mp.slot((start + probe) % mp.buckets)
		st, err := tx.Read(s)
		if err != nil {
			return 0, false, err
		}
		if st == bucketEmpty {
			return 0, false, nil
		}
		key, err := tx.Read(s + 1)
		if err != nil {
			return 0, false, err
		}
		if key != k {
			continue
		}
		v, err := tx.Read(s + 2)
		return v, true, err
	}
	return 0, false, nil
}

// Put inserts or updates k.
func (mp Map) Put(tx *stm.Tx, k, v uint64) error {
	start := int(hashKey(k) % uint64(mp.buckets))
	for probe := 0; probe < mp.buckets; probe++ {
		s := mp.slot((start + probe) % mp.buckets)
		st, err := tx.Read(s)
		if err != nil {
			return err
		}
		if st == bucketEmpty {
			if err := tx.Write(s, bucketUsed); err != nil {
				return err
			}
			if err := tx.Write(s+1, k); err != nil {
				return err
			}
			return tx.Write(s+2, v)
		}
		key, err := tx.Read(s + 1)
		if err != nil {
			return err
		}
		if key == k {
			return tx.Write(s+2, v)
		}
	}
	return ErrFull
}

// Clear empties the map by resetting every bucket state word. It touches
// the whole table inside the transaction, so use it only for bounded
// generation resets.
func (mp Map) Clear(tx *stm.Tx) error {
	for i := 0; i < mp.buckets; i++ {
		if err := tx.Write(mp.slot(i), bucketEmpty); err != nil {
			return err
		}
	}
	return nil
}
