// Package storage provides the stable-storage substrate: disk models
// (simulated, in-memory, and file-backed) and the asynchronous writer pool
// implementing the paper's N+1-thread logging algorithm (§2.4).
//
// The paper's experiments simulate fast disks with fixed write latencies
// (the "Sim 10" and "Sim 5" configurations); SimDisk reproduces that model
// and adds an optional per-byte cost. FileDisk gives a real fsync-backed
// store for integration tests, and MemDisk a zero-latency store whose
// contents can be read back for recovery tests.
package storage

import (
	"errors"
	"fmt"
	"os"
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

// SimDisk models a disk with a fixed per-write latency plus an optional
// per-byte transfer cost. It is the package used for the paper's Sim-N
// configurations and for modelling commodity hard drives in Figure 2.
type SimDisk struct {
	latency time.Duration
	perByte time.Duration

	closed atomic.Bool
	writes atomic.Int64
	bytes  atomic.Int64
}

var _ Disk = (*SimDisk)(nil)

// NewSimDisk returns a disk whose writes take latency plus
// perByte×len(payload).
func NewSimDisk(latency, perByte time.Duration) *SimDisk {
	return &SimDisk{latency: latency, perByte: perByte}
}

// Write blocks for the modelled duration.
func (d *SimDisk) Write(p []byte) error {
	if d.closed.Load() {
		return ErrClosed
	}
	time.Sleep(d.latency + time.Duration(len(p))*d.perByte)
	d.writes.Add(1)
	d.bytes.Add(int64(len(p)))
	return nil
}

// Close marks the disk closed.
func (d *SimDisk) Close() error {
	d.closed.Store(true)
	return nil
}

// Writes reports the number of completed writes (for tests and metrics).
func (d *SimDisk) Writes() int64 { return d.writes.Load() }

// Bytes reports the number of bytes written.
func (d *SimDisk) Bytes() int64 { return d.bytes.Load() }

// MemDisk is an in-memory stable store with no latency. Its contents can be
// read back, which recovery tests use to replay logs.
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

// Chunks returns a snapshot of all writes in order.
func (d *MemDisk) Chunks() [][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([][]byte, len(d.chunks))
	copy(out, d.chunks)
	return out
}

// Contents returns the concatenation of all writes.
func (d *MemDisk) Contents() []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	var n int
	for _, c := range d.chunks {
		n += len(c)
	}
	out := make([]byte, 0, n)
	for _, c := range d.chunks {
		out = append(out, c...)
	}
	return out
}

// FileDisk is a real append-only file flushed with Sync on every write.
type FileDisk struct {
	mu     sync.Mutex
	f      *os.File
	closed bool
}

var _ Disk = (*FileDisk)(nil)

// OpenFileDisk creates (or truncates) path as a storage point.
func OpenFileDisk(path string) (*FileDisk, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("open storage file: %w", err)
	}
	return &FileDisk{f: f}, nil
}

// Write appends p and fsyncs.
func (d *FileDisk) Write(p []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if _, err := d.f.Write(p); err != nil {
		return fmt.Errorf("append: %w", err)
	}
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	return nil
}

// Close syncs and closes the file.
func (d *FileDisk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.f.Close()
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
