// Package experiments regenerates the paper's evaluation figures (2–8) on
// the real engine: the tables the repository benchmark (bench/) does not
// produce.
//
// Each runner returns a Table whose rows mirror the series the paper
// plots. Absolute numbers depend on the host; the shapes — who wins, by
// what factor, where the knees are — are asserted by the package tests
// and recorded in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"streammine/internal/core"
	"streammine/internal/event"
	"streammine/internal/graph"
	"streammine/internal/operator"
	"streammine/internal/storage"
)

// Config scales an experiment run.
type Config struct {
	// Quick shrinks disk latencies, durations and event counts so the
	// whole suite finishes in seconds (used by the tests).
	Quick bool
}

// Table is a printable result: one per figure.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// ms renders a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

// us renders a duration in microseconds with one decimal.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000)
}

// latencySink resolves per-event latencies: payloads carry the emit
// instant (nanoseconds since the run anchor) and the sink subtracts.
type latencySink struct {
	anchor time.Time
	specs  chan time.Duration
	finals chan time.Duration
}

func newLatencySink() *latencySink {
	return &latencySink{
		anchor: time.Now(),
		specs:  make(chan time.Duration, 1<<16),
		finals: make(chan time.Duration, 1<<16),
	}
}

// stamp returns the payload for an event emitted now.
func (s *latencySink) stamp() []byte {
	return operator.EncodeValue(uint64(time.Since(s.anchor).Nanoseconds()))
}

// fn is the Subscribe callback: the first 8 payload bytes are the emit
// instant.
func (s *latencySink) fn(ev event.Event, final bool) {
	sent := time.Duration(operator.DecodeValue(ev.Payload))
	lat := time.Since(s.anchor) - sent
	if final {
		select {
		case s.finals <- lat:
		default:
		}
		return
	}
	select {
	case s.specs <- lat:
	default:
	}
}

// waitFinal blocks for the next finalized event's latency.
func (s *latencySink) waitFinal(timeout time.Duration) (time.Duration, error) {
	select {
	case lat := <-s.finals:
		return lat, nil
	case <-time.After(timeout):
		return 0, fmt.Errorf("experiments: timed out waiting for a final event")
	}
}

// chainSpec describes the Fig. 2/3 measurement pipeline: a source feeding
// N passthrough operators that each log one 64-bit decision per event.
type chainSpec struct {
	ops         int
	speculative bool
	// pools, when non-nil, gives each operator its own writer pool
	// (per-process storage, as in Fig. 3); otherwise all share `shared`.
	perNodePool func() *storage.Pool
	shared      *storage.Pool
}

// measureChain builds the chain and returns the mean end-to-end latency to
// a *final* output over the given number of sequentially issued events.
func measureChain(spec chainSpec, events int) (time.Duration, error) {
	g := graph.New()
	src := g.AddNode(graph.Node{Name: "src"})
	pools := make(map[graph.NodeID]*storage.Pool)
	var cleanup []*storage.Pool
	prev := src
	var last graph.NodeID
	for i := 0; i < spec.ops; i++ {
		n := g.AddNode(graph.Node{
			Name:        fmt.Sprintf("op%d", i),
			Op:          &operator.Passthrough{LogDecision: true},
			Speculative: spec.speculative,
		})
		if spec.perNodePool != nil {
			p := spec.perNodePool()
			pools[n] = p
			cleanup = append(cleanup, p)
		}
		g.Connect(prev, 0, n, 0)
		prev, last = n, n
	}
	shared := spec.shared
	if shared == nil {
		shared = storage.NewPool([]storage.Disk{storage.NewMemDisk()})
		cleanup = append(cleanup, shared)
	}
	defer func() {
		for _, p := range cleanup {
			_ = p.Close()
		}
	}()

	eng, err := core.New(g, core.Options{Pool: shared, NodePools: pools, Seed: 42})
	if err != nil {
		return 0, err
	}
	if err := eng.Start(); err != nil {
		return 0, err
	}
	defer eng.Stop()

	sink := newLatencySink()
	if err := eng.Subscribe(last, 0, sink.fn); err != nil {
		return 0, err
	}
	handle, err := eng.Source(src)
	if err != nil {
		return 0, err
	}

	// One warmup event, unmeasured.
	if _, err := handle.Emit(0, sink.stamp()); err != nil {
		return 0, err
	}
	if _, err := sink.waitFinal(30 * time.Second); err != nil {
		return 0, err
	}

	var total time.Duration
	for i := 0; i < events; i++ {
		if _, err := handle.Emit(uint64(i), sink.stamp()); err != nil {
			return 0, err
		}
		lat, err := sink.waitFinal(30 * time.Second)
		if err != nil {
			return 0, err
		}
		total += lat
	}
	if err := eng.Err(); err != nil {
		return 0, err
	}
	return total / time.Duration(events), nil
}
