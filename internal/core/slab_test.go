package core

import (
	"runtime"
	"testing"
	"time"
	"unsafe"

	"streammine/internal/transport"
)

// TestSlabTakesAreDisjoint: consecutive takes come back zeroed, with cap =
// len, and share no element — each is filled with its own mark as it is
// taken, appended to (which must reallocate, not run into a neighbour), and
// all of them are checked at the end, several chunks later.
func TestSlabTakesAreDisjoint(t *testing.T) {
	var s slab[uint64]
	var taken [][]uint64
	for i := 0; i < 2000; i++ {
		n := i % 41
		p := s.take(n)
		if len(p) != n || cap(p) != n {
			t.Fatalf("take(%d) has len %d, cap %d", n, len(p), cap(p))
		}
		for j := range p {
			if p[j] != 0 {
				t.Fatalf("take %d: element %d is %d, want zeroed", i, j, p[j])
			}
			p[j] = uint64(i)
		}
		_ = append(p, ^uint64(0))
		taken = append(taken, p)
	}
	for i, p := range taken {
		for j := range p {
			if p[j] != uint64(i) {
				t.Fatalf("take %d: element %d holds %d: a later take or an append reached it", i, j, p[j])
			}
		}
	}
}

// TestSlabOversizeTakesItsOwnBlock: a take longer than a chunk, and one
// longer than a quarter of it that the chunk's rest cannot serve, gets an
// allocation of its own and leaves the current chunk where it was; take(0)
// costs nothing, on an empty slab and on a used one.
func TestSlabOversizeTakesItsOwnBlock(t *testing.T) {
	var s slab[byte]
	if allocs := testing.AllocsPerRun(100, func() { _ = s.take(0) }); allocs != 0 || s.rest != nil {
		t.Errorf("take(0) on an empty slab allocated %.0f, chunk bought %t; want nothing", allocs, s.rest != nil)
	}
	addr := func(p []byte) uintptr { return uintptr(unsafe.Pointer(&p[0])) }
	chunk := addr(s.take(16))
	for len(s.rest) > slabBytes/4 {
		_ = s.take(16)
	}
	for _, n := range []int{slabBytes/4 + 1, slabBytes + 1, 3 * slabBytes} {
		rest := s.rest
		big := s.take(n)
		if len(big) != n || cap(big) != n {
			t.Fatalf("take(%d) has len %d, cap %d", n, len(big), cap(big))
		}
		if len(s.rest) != len(rest) || addr(s.rest) != addr(rest) {
			t.Errorf("take(%d) moved the chunk: %d left, was %d", n, len(s.rest), len(rest))
		}
		if p := addr(big); p >= chunk && p < chunk+slabBytes {
			t.Errorf("take(%d) was cut from the chunk", n)
		}
	}
	if next := s.take(slabBytes / 4); addr(next) != chunk+slabBytes-slabBytes/4 {
		t.Error("the take after the oversize ones was not served from what the chunk had left")
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = s.take(0) }); allocs != 0 {
		t.Errorf("take(0) allocated %.0f", allocs)
	}
}

// TestSlabChunkIsCollectable: a chunk is owned by the slices cut from it and
// by nothing else. One live slice keeps it (what a slab costs: a long-lived
// slice pins its chunk), and when the last is dropped the collector frees it
// although the slab that made it lives on.
func TestSlabChunkIsCollectable(t *testing.T) {
	var s slab[byte]
	freed := make(chan struct{})
	head := s.take(16)
	runtime.SetFinalizer(&head[0], func(*byte) { close(freed) })
	kept := s.take(16)
	for i := 0; i < 100000; i++ { // many chunks later
		_ = s.take(16)
	}
	head = nil
	collected := func(wait time.Duration) bool {
		for deadline := time.Now().Add(wait); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			runtime.GC()
			select {
			case <-freed:
				return true
			default:
			}
		}
		return false
	}
	if collected(50 * time.Millisecond) {
		t.Fatal("the chunk was freed under a live slice")
	}
	kept[0] = 1
	runtime.KeepAlive(kept)
	kept = nil
	if !collected(5 * time.Second) {
		t.Fatal("the chunk outlived every slice cut from it")
	}
	_ = s.take(16)
}

// TestSlabTakeAllocs: what a take costs is its share of a chunk — for a run
// of eight references, the FINALIZE frame of a commit group of eight, one
// allocation in 170.
func TestSlabTakeAllocs(t *testing.T) {
	var s slab[transport.FinalizeRef]
	var keep []transport.FinalizeRef
	per1000 := testing.AllocsPerRun(20, func() {
		for i := 0; i < 1000; i++ {
			keep = s.take(8)
		}
	})
	if per1000 > 10 {
		t.Errorf("1000 takes of 8 references allocated %.0f, want at most 10 (0.01 each)", per1000)
	}
	_ = keep
}
