// Package wal implements the decision log: an append-only, checksummed log
// of the non-deterministic decisions an operator takes while processing
// events (paper §2.2, §2.4).
//
// Three classes of decisions are logged so that replay after a failure
// reproduces the exact pre-failure execution:
//
//   - input-order decisions: which input stream the next event was taken
//     from (unions, joins, and any order-sensitive operator);
//   - random draws: values obtained from the operator's PRNG;
//   - time reads: physical-time observations used in processing.
//
// Appends are asynchronous — they are handed to a storage.Pool and the
// caller is notified when the records are stable. Non-speculative operators
// block their outputs on that notification; speculative operators send
// outputs immediately and finalize them on notification (the paper's core
// latency optimization).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"streammine/internal/event"
	"streammine/internal/metrics"
	"streammine/internal/storage"
)

// Kind classifies a logged decision.
type Kind uint8

// Decision kinds. KindCheckpointMark records that a checkpoint covering all
// prior records is stable, which allows pruning the log up to that point.
const (
	KindInput Kind = iota + 1
	KindRandom
	KindTime
	KindCustom
	KindCheckpointMark
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindRandom:
		return "random"
	case KindTime:
		return "time"
	case KindCustom:
		return "custom"
	case KindCheckpointMark:
		return "checkpoint"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// LSN is a log sequence number: the 1-based index of a record in the log.
type LSN uint64

// Record is one logged decision.
type Record struct {
	// LSN is assigned by Append; zero on input.
	LSN LSN
	// Kind classifies the decision.
	Kind Kind
	// Operator identifies the operator instance that took the decision.
	Operator uint32
	// Event is the event whose processing took the decision.
	Event event.ID
	// Value holds the decision itself: the input-stream index for
	// KindInput, the drawn value for KindRandom, the tick for KindTime,
	// the covered LSN for KindCheckpointMark.
	Value uint64
	// Aux carries free-form payload for KindCustom.
	Aux []byte
}

// record layout:
//
//	length  uint32  (bytes after this field, including crc)
//	crc     uint32  (over everything after the crc field)
//	lsn     uint64
//	kind    uint8
//	op      uint32
//	evsrc   uint32
//	evseq   uint64
//	value   uint64
//	auxlen  uint32
//	aux     bytes
const recordFixed = 8 + 8 + 1 + 4 + 4 + 8 + 8 + 4

var (
	// ErrCorrupt is returned by Scan when a record fails its checksum or
	// is structurally invalid.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrClosed is returned for appends after Close.
	ErrClosed = errors.New("wal: closed")
)

// encode appends the binary form of r (with the given LSN) to dst. The
// record is built and checksummed in place: a header on the stack would
// escape to the heap through crc32's indirect call.
func encode(dst []byte, r Record) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, recordFixed)...)
	hdr := dst[start:]
	binary.LittleEndian.PutUint32(hdr[0:], uint32(recordFixed-4+len(r.Aux))) // crc + body
	binary.LittleEndian.PutUint64(hdr[8:], uint64(r.LSN))
	hdr[16] = byte(r.Kind)
	binary.LittleEndian.PutUint32(hdr[17:], r.Operator)
	binary.LittleEndian.PutUint32(hdr[21:], uint32(r.Event.Source))
	binary.LittleEndian.PutUint64(hdr[25:], uint64(r.Event.Seq))
	binary.LittleEndian.PutUint64(hdr[33:], r.Value)
	binary.LittleEndian.PutUint32(hdr[41:], uint32(len(r.Aux)))
	dst = append(dst, r.Aux...)
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.ChecksumIEEE(dst[start+8:]))
	return dst
}

// decodeOne parses one record from the front of src, returning the record
// and bytes consumed.
func decodeOne(src []byte) (Record, int, error) {
	if len(src) < 8 {
		return Record{}, 0, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	length := binary.LittleEndian.Uint32(src[0:])
	if int(length) < recordFixed-4 || len(src) < 4+int(length) {
		return Record{}, 0, fmt.Errorf("%w: bad length %d", ErrCorrupt, length)
	}
	wantCRC := binary.LittleEndian.Uint32(src[4:])
	body := src[8 : 4+length]
	if crc32.ChecksumIEEE(body) != wantCRC {
		return Record{}, 0, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	r := Record{
		LSN:      LSN(binary.LittleEndian.Uint64(body[0:])),
		Kind:     Kind(body[8]),
		Operator: binary.LittleEndian.Uint32(body[9:]),
		Event: event.ID{
			Source: event.SourceID(binary.LittleEndian.Uint32(body[13:])),
			Seq:    event.Seq(binary.LittleEndian.Uint64(body[17:])),
		},
		Value: binary.LittleEndian.Uint64(body[25:]),
	}
	auxLen := binary.LittleEndian.Uint32(body[33:])
	if int(auxLen) != len(body)-37 {
		return Record{}, 0, fmt.Errorf("%w: aux length mismatch", ErrCorrupt)
	}
	if auxLen > 0 {
		r.Aux = make([]byte, auxLen)
		copy(r.Aux, body[37:])
	}
	return r, 4 + int(length), nil
}

// Scan decodes all records in data (as produced by appends through a
// MemDisk or a SegmentStore). It returns records in log order. No record is
// shorter than recordFixed, so the result is sized once.
func Scan(data []byte) ([]Record, error) {
	out := make([]Record, 0, len(data)/recordFixed)
	for len(data) > 0 {
		r, n, err := decodeOne(data)
		if err != nil {
			return out, err
		}
		out = append(out, r)
		data = data[n:]
	}
	return out, nil
}

// LogMetrics is the optional instrumentation hook for a Log. All fields
// may be shared by several logs (per-engine aggregation); nil fields are
// skipped. The append latency is measured from submission to the stable
// notification, i.e. it includes queueing in the storage pool — the
// quantity the paper's speculation hides (§2.4).
type LogMetrics struct {
	// AppendLatency observes submit→stable per batch.
	AppendLatency *metrics.HDR
	// Appends counts submitted batches.
	Appends *metrics.Counter
	// Records counts submitted records.
	Records *metrics.Counter
	// Errors counts batches whose stable notification reported failure.
	Errors *metrics.Counter
}

// Log is the asynchronous decision log for one node. It is safe for
// concurrent use by all operators hosted on the node.
type Log struct {
	pool *storage.Pool

	nextLSN   atomic.Uint64
	stableLSN atomic.Uint64

	met atomic.Pointer[LogMetrics]

	mu      sync.Mutex
	closed  bool
	pending sync.WaitGroup // batches submitted and not yet stable or failed (Settle)
}

// New creates a log writing through pool. The caller retains ownership of
// the pool (several logs may share one pool, as in the paper's two-
// components-one-process experiment).
func New(pool *storage.Pool) *Log {
	return &Log{pool: pool}
}

// Append assigns LSNs to recs, submits them for stable storage, and
// returns the LSN of the last record. done (optional) is called when the
// records are stable or have failed.
//
// LSN assignment and submission happen atomically with respect to other
// Append calls, so LSN order equals submission order.
func (l *Log) Append(recs []Record, done func(error)) (LSN, error) {
	if len(recs) == 0 {
		if done != nil {
			done(nil)
		}
		return LSN(l.nextLSN.Load()), nil
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	size := len(recs) * recordFixed
	for i := range recs {
		size += len(recs[i].Aux)
	}
	buf := make([]byte, 0, size)
	var last LSN
	for i := range recs {
		recs[i].LSN = LSN(l.nextLSN.Add(1))
		last = recs[i].LSN
		buf = encode(buf, recs[i])
	}
	met := l.met.Load()
	var submitted time.Time
	if met != nil {
		submitted = time.Now()
		if met.Appends != nil {
			met.Appends.Inc()
		}
		if met.Records != nil {
			met.Records.Add(uint64(len(recs)))
		}
	}
	l.pending.Add(1)
	err := l.pool.Submit(storage.Request{
		Payload: buf,
		Done: func(err error) {
			defer l.pending.Done()
			if err == nil {
				advance(&l.stableLSN, uint64(last))
			}
			if met != nil {
				if err != nil && met.Errors != nil {
					met.Errors.Inc()
				}
				if met.AppendLatency != nil {
					met.AppendLatency.Record(time.Since(submitted))
				}
			}
			if done != nil {
				done(err)
			}
		},
	})
	l.mu.Unlock()
	if err != nil {
		l.pending.Done()
		return 0, fmt.Errorf("submit log batch: %w", err)
	}
	return last, nil
}

// Settle blocks until every batch submitted so far is stable or has
// failed and its done callback has returned. The caller makes sure that
// nothing appends meanwhile: a crashed node settles its log so that no
// write of the dead incarnation lands after its recovery reads the disk.
func (l *Log) Settle() { l.pending.Wait() }

// AppendSync appends and blocks until the records are stable.
func (l *Log) AppendSync(recs []Record) (LSN, error) {
	ch := make(chan error, 1)
	lsn, err := l.Append(recs, func(err error) { ch <- err })
	if err != nil {
		return 0, err
	}
	if err := <-ch; err != nil {
		return 0, err
	}
	return lsn, nil
}

// advance raises a monotonic watermark to at least v.
func advance(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// SetMetrics attaches (or replaces) the log's instrumentation. Safe to
// call concurrently with appends; in-flight batches keep the hook they
// were submitted under.
func (l *Log) SetMetrics(m *LogMetrics) { l.met.Store(m) }

// UnstableLag returns the number of appended records not yet known
// stable — the stable-LSN lag a scrape-time gauge exposes.
func (l *Log) UnstableLag() uint64 {
	next := l.nextLSN.Load() // last assigned LSN
	stable := l.stableLSN.Load()
	if next <= stable {
		return 0
	}
	return next - stable
}

// AdvanceLSN raises the LSN cursor (and the stable watermark) to at least
// last. A recovered node calls it with the highest LSN found in its
// durable records, so a fresh Log over a reopened store continues the LSN
// sequence instead of re-issuing low LSNs that would break the log-order
// invariant for future recoveries.
func (l *Log) AdvanceLSN(last LSN) {
	advance(&l.nextLSN, uint64(last))
	advance(&l.stableLSN, uint64(last))
}

// Close marks the log closed. It does not close the underlying pool.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	return nil
}
