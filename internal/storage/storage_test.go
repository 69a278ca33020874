package storage

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMemDiskRoundTrip(t *testing.T) {
	d := NewMemDisk()
	if err := d.Write([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := d.Write([]byte("two")); err != nil {
		t.Fatal(err)
	}
	if got := string(d.Contents()); got != "onetwo" {
		t.Fatalf("Contents = %q", got)
	}
}

func TestMemDiskWriteCopies(t *testing.T) {
	d := NewMemDisk()
	buf := []byte("abc")
	if err := d.Write(buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	if got := string(d.Contents()); got != "abc" {
		t.Fatalf("Write aliased caller buffer: %q", got)
	}
}

func TestMemDiskClosed(t *testing.T) {
	d := NewMemDisk()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close = %v, want ErrClosed", err)
	}
}

func TestSimDiskLatency(t *testing.T) {
	d := NewSimDisk(20*time.Millisecond, 0)
	start := time.Now()
	if err := d.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 18*time.Millisecond {
		t.Fatalf("SimDisk write took %v, want >= ~20ms", elapsed)
	}
}

func TestSimDiskClosed(t *testing.T) {
	d := NewSimDisk(0, 0)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close = %v, want ErrClosed", err)
	}
}

func TestFaultyDisk(t *testing.T) {
	inner := NewMemDisk()
	d := NewFaultyDisk(inner, 3)
	if err := d.Write([]byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := d.Write([]byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := d.Write([]byte("3")); !errors.Is(err, ErrInjected) {
		t.Fatalf("third write = %v, want ErrInjected", err)
	}
	if err := d.Write([]byte("4")); !errors.Is(err, ErrInjected) {
		t.Fatalf("fourth write = %v, want ErrInjected", err)
	}
	if got := string(inner.Contents()); got != "12" {
		t.Fatalf("inner contents = %q, want \"12\"", got)
	}
}

func TestPoolSingleWrite(t *testing.T) {
	mem := NewMemDisk()
	p := NewPool([]Disk{mem})
	defer p.Close()
	if err := p.SyncWrite([]byte("record")); err != nil {
		t.Fatal(err)
	}
	if got := string(mem.Contents()); got != "record" {
		t.Fatalf("contents = %q", got)
	}
}

func TestPoolAllCallbacksRun(t *testing.T) {
	p := NewPool([]Disk{NewSimDisk(time.Millisecond, 0), NewSimDisk(time.Millisecond, 0)})
	defer p.Close()
	const n = 200
	var wg sync.WaitGroup
	var failures atomic.Int64
	wg.Add(n)
	for i := 0; i < n; i++ {
		err := p.Submit(Request{Payload: []byte{byte(i)}, Done: func(err error) {
			if err != nil {
				failures.Add(1)
			}
			wg.Done()
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed", failures.Load())
	}
}

// TestPoolGroupCommit verifies the core §2.4 property: when requests arrive
// faster than a single slow disk can absorb them, the collector batches
// them so the disk sees far fewer writes than there were requests.
func TestPoolGroupCommit(t *testing.T) {
	disk := &countingDisk{Disk: NewSimDisk(10*time.Millisecond, 0)}
	p := NewPool([]Disk{disk})
	defer p.Close()

	const n = 100
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := p.Submit(Request{Payload: []byte("d"), Done: func(error) { wg.Done() }}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if w := disk.writes.Load(); w >= n/2 {
		t.Fatalf("group commit ineffective: %d disk writes for %d requests", w, n)
	}
}

// countingDisk counts the writes that reach the disk it wraps.
type countingDisk struct {
	Disk
	writes atomic.Int64
}

func (d *countingDisk) Write(p []byte) error {
	d.writes.Add(1)
	return d.Disk.Write(p)
}

// concurrencyDisk records the maximum number of overlapping writes.
type concurrencyDisk struct {
	inner   Disk
	current *atomic.Int64
	max     *atomic.Int64
}

func (d *concurrencyDisk) Write(p []byte) error {
	cur := d.current.Add(1)
	for {
		m := d.max.Load()
		if cur <= m || d.max.CompareAndSwap(m, cur) {
			break
		}
	}
	err := d.inner.Write(p)
	d.current.Add(-1)
	return err
}

func (d *concurrencyDisk) Close() error { return d.inner.Close() }

// TestPoolParallelDisks verifies that with two storage points the pool
// actually drives overlapping writes (the §2.4 parallel-logging property),
// while with one it never does.
func TestPoolParallelDisks(t *testing.T) {
	run := func(nDisks int) int64 {
		var current, max atomic.Int64
		disks := make([]Disk, nDisks)
		for i := range disks {
			disks[i] = &concurrencyDisk{
				inner:   NewSimDisk(5*time.Millisecond, 0),
				current: &current,
				max:     &max,
			}
		}
		p := NewPool(disks)
		defer p.Close()
		var wg sync.WaitGroup
		const n = 40
		wg.Add(n)
		for i := 0; i < n; i++ {
			if err := p.Submit(Request{Payload: []byte("x"), Done: func(error) { wg.Done() }}); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		return max.Load()
	}
	if got := run(1); got != 1 {
		t.Fatalf("one disk reached write concurrency %d, want 1", got)
	}
	if got := run(2); got != 2 {
		t.Fatalf("two disks reached write concurrency %d, want 2", got)
	}
}

// TestPoolGroupCommitWindow verifies the NewPoolDelayed window: requests
// issued within the window of the first one share its stable write.
func TestPoolGroupCommitWindow(t *testing.T) {
	disk := &countingDisk{Disk: NewSimDisk(5*time.Millisecond, 0)}
	p := NewPoolDelayed([]Disk{disk}, 2*time.Millisecond)
	defer p.Close()
	var wg sync.WaitGroup
	const n = 10
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := p.Submit(Request{Payload: []byte("x"), Done: func(error) { wg.Done() }}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if w := disk.writes.Load(); w != 1 {
		t.Fatalf("disk writes = %d, want 1 (window should batch all)", w)
	}
}

func TestPoolClosePendingFail(t *testing.T) {
	p := NewPool([]Disk{NewSimDisk(50*time.Millisecond, 0)})
	var closedErr atomic.Int64
	var wg sync.WaitGroup
	// First request occupies the disk; the rest accumulate at the
	// collector and must fail with ErrClosed when we close mid-flight.
	for i := 0; i < 5; i++ {
		wg.Add(1)
		if err := p.Submit(Request{Payload: []byte("x"), Done: func(err error) {
			if errors.Is(err, ErrClosed) {
				closedErr.Add(1)
			}
			wg.Done()
		}}); err != nil {
			wg.Done()
		}
	}
	time.Sleep(5 * time.Millisecond)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := p.Submit(Request{Payload: []byte("x")}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestPoolWriteErrorPropagates(t *testing.T) {
	p := NewPool([]Disk{NewFaultyDisk(NewMemDisk(), 1)})
	defer p.Close()
	if err := p.SyncWrite([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("SyncWrite = %v, want ErrInjected", err)
	}
}

func TestPoolPreservesBatchOrderWithinWrite(t *testing.T) {
	mem := NewMemDisk()
	p := NewPool([]Disk{mem})
	var wg sync.WaitGroup
	var payloads [][]byte
	for i := 0; i < 50; i++ {
		payloads = append(payloads, []byte{byte(i)})
	}
	wg.Add(len(payloads))
	for _, pl := range payloads {
		if err := p.Submit(Request{Payload: pl, Done: func(error) { wg.Done() }}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, pl := range payloads {
		want = append(want, pl...)
	}
	if !bytes.Equal(mem.Contents(), want) {
		t.Fatalf("disk contents reordered:\n got %v\nwant %v", mem.Contents(), want)
	}
}

func BenchmarkPoolSyncWrite(b *testing.B) {
	p := NewPool([]Disk{NewMemDisk()})
	defer p.Close()
	payload := bytes.Repeat([]byte{1}, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.SyncWrite(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// discardDisk accepts writes and keeps nothing.
type discardDisk struct{}

func (discardDisk) Write(p []byte) error { return nil }
func (discardDisk) Close() error         { return nil }

// TestSyncWriteAllocs pins the pool's own cost per stable write: the
// caller's channel (and its slot) and callback, nothing in the worker,
// whose batch and join buffer are reused and which writes a lone request's
// payload as it is.
func TestSyncWriteAllocs(t *testing.T) {
	const want = 3
	pool := NewPool([]Disk{discardDisk{}})
	defer pool.Close()
	chunk := make([]byte, 64)
	if allocs := testing.AllocsPerRun(300, func() {
		if err := pool.SyncWrite(chunk); err != nil {
			t.Fatal(err)
		}
	}); allocs > want {
		t.Errorf("SyncWrite allocated %.1f, want at most %d", allocs, want)
	}
}
