// Specsink demonstrates the paper's closing §4 scenario: the pipeline is
// allowed to externalize *speculative* records to a shared resource (here
// an append-only record store standing in for a file or database), and the
// consuming application filters out records that were never finalized
// using a small reader library.
//
// With logging on a simulated 10 ms disk, speculative records become
// visible within microseconds while finalized ones trail by the disk
// latency — "the total processing latency will be independent of the
// logging latency".
//
//	go run ./examples/specsink
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
	"streammine/internal/vclock"
)

// RecordStore is the external resource: an append-only table of records
// tagged speculative/final, as the paper's file-plus-filter-library.
type RecordStore struct {
	mu      sync.Mutex
	rows    []Row
	finalAt map[event.ID]int // index of the finalization marker
}

// Row is one externalized record.
type Row struct {
	ID          event.ID
	Value       uint64
	Speculative bool
	SeenAt      time.Duration
}

// NewRecordStore returns an empty store.
func NewRecordStore() *RecordStore {
	return &RecordStore{finalAt: make(map[event.ID]int)}
}

// Append writes a record row.
func (rs *RecordStore) Append(row Row) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.rows = append(rs.rows, row)
	if !row.Speculative {
		rs.finalAt[row.ID] = len(rs.rows) - 1
	}
}

// ReadCommitted is the reader library: it returns only rows whose IDs were
// finalized, dropping speculative rows that never became final.
func (rs *RecordStore) ReadCommitted() []Row {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]Row, 0, len(rs.finalAt))
	for _, idx := range rs.finalAt {
		out = append(out, rs.rows[idx])
	}
	return out
}

// Stats summarizes speculative vs final visibility latency.
func (rs *RecordStore) Stats() (specMean, finalMean time.Duration, specRows, finalRows int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var specTotal, finalTotal time.Duration
	for _, r := range rs.rows {
		if r.Speculative {
			specTotal += r.SeenAt
			specRows++
		} else {
			finalTotal += r.SeenAt
			finalRows++
		}
	}
	if specRows > 0 {
		specMean = specTotal / time.Duration(specRows)
	}
	if finalRows > 0 {
		finalMean = finalTotal / time.Duration(finalRows)
	}
	return specMean, finalMean, specRows, finalRows
}

const (
	events  = 50
	diskLat = 10 * time.Millisecond
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "sensors"})
	an := g.AddNode(graph.Node{
		Name:        "analysis",
		Op:          &operator.Passthrough{LogDecision: true}, // non-deterministic, logged
		Speculative: true,
	})
	g.Connect(src, 0, an, 0)

	pool := storage.NewPool([]storage.Disk{storage.NewSimDisk(diskLat)})
	defer pool.Close()
	wall := vclock.NewWall()
	eng, err := core.New(g, core.Options{Pool: pool, Seed: 5, Clock: wall})
	if err != nil {
		return err
	}
	if err := eng.Start(); err != nil {
		return err
	}
	defer eng.Stop()

	store := NewRecordStore()
	if err := eng.Subscribe(an, 0, func(ev event.Event, final bool) {
		lat := time.Duration(wall.Now() - ev.Timestamp)
		store.Append(Row{
			ID:          ev.ID,
			Value:       operator.DecodeValue(ev.Payload),
			Speculative: !final,
			SeenAt:      lat,
		})
	}); err != nil {
		return err
	}

	handle, err := eng.Source(src)
	if err != nil {
		return err
	}
	for i := uint64(0); i < events; i++ {
		if _, err := handle.Emit(i, operator.EncodeValue(i*i)); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond)
	}
	eng.Drain()
	if err := eng.Err(); err != nil {
		return err
	}

	specMean, finalMean, specRows, finalRows := store.Stats()
	fmt.Printf("externalized %d speculative rows (visible after %v on average)\n", specRows, specMean)
	fmt.Printf("finalized    %d rows            (visible after %v on average, disk=%v)\n",
		finalRows, finalMean, diskLat)
	committed := store.ReadCommitted()
	fmt.Printf("reader library returns %d committed rows; speculative-only rows filtered out\n", len(committed))
	if finalMean > 0 && specMean > 0 {
		fmt.Printf("speculative visibility is %.0fx faster than waiting for the log\n",
			float64(finalMean)/float64(specMean))
	}
	return nil
}
