package core

import "unsafe"

// slabBytes is the size of a slab's chunk: a hundred short slices, and
// still a small object to the allocator and the collector.
const slabBytes = 8 << 10

// slab cuts the short slices one goroutine writes once and hands to exactly
// one consumer — a payload, a run of events or references, a run's records —
// from chunks that goroutine owns, in place of one allocation each. A chunk
// is never reused: every element is handed out at most once, and the
// collector frees the chunk whole when the last slice cut from it is dead
// (DESIGN.md §9.7). Not safe for concurrent use; the zero value is ready.
type slab[T any] struct {
	rest []T // what the current chunk has left
}

// take returns n zeroed elements with cap = len, so that an append by their
// receiver can never reach a neighbour. A request the chunk's rest cannot
// serve abandons that rest for a fresh chunk — at most a quarter of one: a
// longer request gets a block of its own.
func (s *slab[T]) take(n int) []T {
	if n > len(s.rest) {
		var zero T
		chunk := max(slabBytes/int(unsafe.Sizeof(zero)), 1)
		if n > chunk/4 {
			return make([]T, n)
		}
		s.rest = make([]T, chunk)
	}
	out := s.rest[:n:n]
	s.rest = s.rest[n:]
	return out
}
