package storage

import (
	"errors"
	"sync"
	"time"
)

// Request is one asynchronous durability request. Done is invoked exactly
// once, from a pool goroutine, when the payload is stable on some storage
// point (err == nil) or the write failed.
type Request struct {
	Payload []byte
	Done    func(err error)
}

// Pool implements the paper's §2.4 logging algorithm: with N configured
// storage points there are N+1 threads — at any moment up to N of them are
// writing (one per storage point) and one is the *collector*, accumulating
// incoming requests into a batch while the writers are busy. When a writer
// finishes it hands its storage point to the collector (which flushes the
// accumulated batch to it as a single write) and takes over the collector
// role itself.
//
// The practical effect, and the reason the paper uses it, is adaptive group
// commit: under load, many requests become stable with one disk-latency
// charge, so log throughput scales with offered load while idle latency
// stays at a single write.
type Pool struct {
	requests chan Request
	stop     chan struct{}
	done     sync.WaitGroup

	// collector is a one-slot token channel: holding the token makes a
	// goroutine the collector. disks holds idle storage points.
	collector chan struct{}
	disks     chan Disk

	// delay is the group-commit window: after the first request of a
	// batch, the collector keeps accumulating for this long even if a
	// storage point is already free. Zero disables the window.
	delay time.Duration

	mu     sync.Mutex
	closed bool
}

// NewPoolDelayed is NewPool with a group-commit window: requests arriving
// within delay of the batch's first request share one stable write. This
// models how concurrently issued log requests on a shared disk become
// stable together (the effect behind the paper's Figure 2 single-disk
// speculative numbers, cf. PostgreSQL's commit_delay).
func NewPoolDelayed(disks []Disk, delay time.Duration) *Pool {
	p := NewPool(disks)
	p.delay = delay
	return p
}

// NewPool starts the N+1 goroutines over the given storage points. The pool
// owns the disks and closes them on Close. It panics if no disks are given
// (construction-time misuse).
func NewPool(disks []Disk) *Pool {
	if len(disks) == 0 {
		panic("storage: NewPool requires at least one disk")
	}
	p := &Pool{
		requests:  make(chan Request),
		stop:      make(chan struct{}),
		collector: make(chan struct{}, 1),
		disks:     make(chan Disk, len(disks)),
	}
	p.collector <- struct{}{}
	for _, d := range disks {
		p.disks <- d
	}
	for i := 0; i < len(disks)+1; i++ {
		p.done.Add(1)
		go p.worker()
	}
	return p
}

// Submit queues an asynchronous durability request. The request's Done
// callback runs on a pool goroutine; it must not block for long. Submit
// returns ErrClosed after Close.
func (p *Pool) Submit(req Request) error {
	select {
	case <-p.stop:
		return ErrClosed
	case p.requests <- req:
		return nil
	}
}

// worker cycles between the collector role and the writer role.
func (p *Pool) worker() {
	defer p.done.Done()
	// batch and buf are the worker's own scratch, reused across cycles: a
	// Disk does not keep the slice it is handed.
	var batch []Request
	var buf []byte
	for {
		// Become the collector.
		select {
		case <-p.stop:
			return
		case <-p.collector:
		}

		// Collect: block for the first request, then keep accumulating
		// until a storage point frees up (and, with a group-commit window
		// configured, until the window has elapsed).
		var disk Disk
		select {
		case <-p.stop:
			p.collector <- struct{}{}
			return
		case req := <-p.requests:
			batch = append(batch, req)
		}
		var timer *time.Timer
		var windowC <-chan time.Time
		if p.delay > 0 {
			timer = time.NewTimer(p.delay)
			windowC = timer.C
		}
		diskC := p.disks
		stopped := false
		for !stopped && (disk == nil || windowC != nil) {
			select {
			case <-p.stop:
				stopped = true
			case req := <-p.requests:
				batch = append(batch, req)
			case disk = <-diskC:
				diskC = nil // hold exactly one storage point
			case <-windowC:
				windowC = nil
			}
		}
		if timer != nil {
			timer.Stop()
		}
		if stopped {
			failBatch(batch, ErrClosed)
			if disk != nil {
				p.disks <- disk
			}
			p.collector <- struct{}{}
			return
		}

		// Hand the collector role to another worker, then write the whole
		// accumulated batch as one stable write.
		p.collector <- struct{}{}

		write := batch[0].Payload // a lone request is written as it is
		if len(batch) > 1 {
			buf = buf[:0]
			for _, req := range batch {
				buf = append(buf, req.Payload...)
			}
			write = buf
		}
		// Slow-disk fault injection (SetChaosWriteDelay): stall the batch
		// like a degraded device would, one charge per stable write.
		if d := ChaosWriteDelay(); d > 0 {
			time.Sleep(d)
		}
		err := disk.Write(write)
		p.disks <- disk
		for _, req := range batch {
			if req.Done != nil {
				req.Done(err)
			}
		}
		clear(batch) // drop the payloads and callbacks
		batch = batch[:0]
	}
}

func failBatch(batch []Request, err error) {
	for _, req := range batch {
		if req.Done != nil {
			req.Done(err)
		}
	}
}

// Close stops the workers and closes the storage points. Requests that were
// not yet handed to a disk fail with ErrClosed. Close is idempotent.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()

	close(p.stop)
	p.done.Wait()

	var errs []error
	close(p.disks)
	for d := range p.disks {
		if err := d.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// SyncWrite submits a request and blocks until it is stable. It is the
// convenience used by non-speculative operators, which must wait for the
// log before sending events downstream.
func (p *Pool) SyncWrite(payload []byte) error {
	ch := make(chan error, 1)
	if err := p.Submit(Request{Payload: payload, Done: func(err error) { ch <- err }}); err != nil {
		return err
	}
	return <-ch
}
