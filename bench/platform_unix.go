//go:build unix

package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// cpuTime is the process's user+system CPU time in nanoseconds.
func cpuTime() (int64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), nil
}

// offHeap reserves n zeroed values of T (which must hold no Go pointers)
// outside the Go heap. A saturation run records millions of events; on the
// heap those tables would dwarf the engine's live set, the GC pacer would
// stretch its cycles to match, and cpu_us_per_event, allocs-driven
// optimisations and core.heap_inuse_peak_mb would all measure the harness
// instead of the engine. Anonymous pages are faulted in lazily, so
// reserving for the fastest plausible run is free.
func offHeap[T any](n int) ([]T, func(), error) {
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("mmap %d bytes for a harness table: %w", size, err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), func() { _ = syscall.Munmap(mem) }, nil
}
