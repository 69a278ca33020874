// Package storage provides the stable-storage substrate: disk models
// (simulated and in-memory) and the asynchronous writer pool implementing
// the paper's N+1-thread logging algorithm (§2.4).
//
// The paper's experiments simulate fast disks with fixed write latencies
// (the "Sim 10" and "Sim 5" configurations); SimDisk reproduces that model
// and adds an optional per-byte cost. MemDisk is a zero-latency store
// whose contents can be read back for recovery tests; the file-backed
// store is wal.SegmentStore.
package storage

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Disk is a stable-storage point: a Write that has returned is durable.
// Implementations must be safe for concurrent use (the writer pool never
// issues concurrent writes to one disk, but tests may).
type Disk interface {
	// Write persists p and returns once it is stable. It must not keep p:
	// the pool reuses the buffer for its next write.
	Write(p []byte) error
	// Close releases the storage point. Writes after Close fail.
	Close() error
}

// ErrClosed is returned for operations on a closed disk or pool.
var ErrClosed = errors.New("storage: closed")

// SimDisk models a disk with a fixed per-write latency. It is the package
// used for the paper's Sim-N configurations and for modelling commodity
// hard drives in Figure 2.
type SimDisk struct {
	latency time.Duration

	closed atomic.Bool
}

var _ Disk = (*SimDisk)(nil)

// NewSimDisk returns a disk whose writes take latency each.
func NewSimDisk(latency time.Duration) *SimDisk {
	return &SimDisk{latency: latency}
}

// Write blocks for the modelled duration.
func (d *SimDisk) Write(p []byte) error {
	if d.closed.Load() {
		return ErrClosed
	}
	time.Sleep(d.latency)
	return nil
}

// Close marks the disk closed.
func (d *SimDisk) Close() error {
	d.closed.Store(true)
	return nil
}

// MemDisk is an in-memory stable store with no latency. It keeps a copy of
// every write.
type MemDisk struct {
	mu     sync.Mutex
	chunks [][]byte
	closed bool
}

var _ Disk = (*MemDisk)(nil)

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk {
	return &MemDisk{}
}

// Write copies p into the store.
func (d *MemDisk) Write(p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	c := make([]byte, len(p))
	copy(c, p)
	d.chunks = append(d.chunks, c)
	return nil
}

// Close marks the disk closed.
func (d *MemDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

// FaultyDisk wraps a Disk and fails the nth write and everything after,
// simulating a storage failure for recovery tests.
type FaultyDisk struct {
	inner   Disk
	failAt  int64
	counter atomic.Int64
}

var _ Disk = (*FaultyDisk)(nil)

// ErrInjected is the failure returned by FaultyDisk once tripped.
var ErrInjected = errors.New("storage: injected fault")

// NewFaultyDisk fails write number failAt (1-based) and all later writes.
func NewFaultyDisk(inner Disk, failAt int64) *FaultyDisk {
	return &FaultyDisk{inner: inner, failAt: failAt}
}

// Write delegates until the trip point, then fails.
func (d *FaultyDisk) Write(p []byte) error {
	if d.counter.Add(1) >= d.failAt {
		return ErrInjected
	}
	return d.inner.Write(p)
}

// Close closes the wrapped disk.
func (d *FaultyDisk) Close() error { return d.inner.Close() }
