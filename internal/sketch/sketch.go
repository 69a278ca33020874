// Package sketch implements the stream summaries used by the paper's
// expensive parallelizable operator: the count sketch of Charikar, Chen
// and Farach-Colton ("Finding frequent items in data streams", TCS 2004),
// plus a count-min sketch and a top-k tracker for comparison.
//
// Two variants are provided: plain in-process sketches (for workload
// generation, baselines and accuracy tests) and transactional sketches
// whose counter matrix lives in STM memory, so updates from concurrent
// speculative transactions are detected and serialized by the STM — the
// access pattern the paper highlights as ideal for optimistic
// parallelization (each update touches only d of the d×w counters, at
// positions that depend on runtime data).
package sketch

import (
	"fmt"
	"slices"
	"sort"

	"streammine/internal/state"
	"streammine/internal/stm"
)

// rowHash mixes a key with a per-row seed (SplitMix64 finalizer).
func rowHash(seed, key uint64) uint64 {
	z := key + seed
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// seeds derives deterministic per-row seeds.
func seeds(n int, base uint64) []uint64 {
	out := make([]uint64, n)
	s := base
	for i := range out {
		s += 0x9E3779B97F4A7C15
		out[i] = rowHash(s, 0x5851F42D4C957F2D)
	}
	return out
}

// CountSketch is the plain (non-transactional) count sketch.
type CountSketch struct {
	depth, width int
	rows         [][]int64
	hashSeeds    []uint64
	signSeeds    []uint64
}

// NewCountSketch creates a sketch with the given depth (rows) and width
// (counters per row). It panics on non-positive dimensions (construction-
// time misuse).
func NewCountSketch(depth, width int, seed uint64) *CountSketch {
	if depth <= 0 || width <= 0 {
		panic(fmt.Sprintf("sketch: bad dimensions %d×%d", depth, width))
	}
	rows := make([][]int64, depth)
	for i := range rows {
		rows[i] = make([]int64, width)
	}
	return &CountSketch{
		depth:     depth,
		width:     width,
		rows:      rows,
		hashSeeds: seeds(depth, seed),
		signSeeds: seeds(depth, seed^0xABCDEF0123456789),
	}
}

// Depth and Width expose the dimensions.
func (cs *CountSketch) Depth() int { return cs.depth }

// Width returns the number of counters per row.
func (cs *CountSketch) Width() int { return cs.width }

func (cs *CountSketch) pos(row int, key uint64) (col int, sign int64) {
	col = int(rowHash(cs.hashSeeds[row], key) % uint64(cs.width))
	if rowHash(cs.signSeeds[row], key)&1 == 0 {
		return col, 1
	}
	return col, -1
}

// Update adds count occurrences of key.
func (cs *CountSketch) Update(key uint64, count int64) {
	for r := 0; r < cs.depth; r++ {
		col, sign := cs.pos(r, key)
		cs.rows[r][col] += sign * count
	}
}

// Estimate returns the estimated frequency of key (median over rows).
func (cs *CountSketch) Estimate(key uint64) int64 {
	var buf [medianInline]int64
	ests := rowEstimates(&buf, cs.depth)
	for r := 0; r < cs.depth; r++ {
		col, sign := cs.pos(r, key)
		ests[r] = sign * cs.rows[r][col]
	}
	return median(ests)
}

// medianInline is the deepest sketch whose per-row estimates fit the stack
// buffer an Estimate sorts them in.
const medianInline = 16

// rowEstimates returns room for one estimate per row: buf, which the caller
// keeps on its stack, unless the sketch is deeper than that.
func rowEstimates(buf *[medianInline]int64, depth int) []int64 {
	if depth <= len(buf) {
		return buf[:depth]
	}
	return make([]int64, depth)
}

func median(v []int64) int64 {
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// CountMin is the plain count-min sketch (non-negative counts only).
type CountMin struct {
	depth, width int
	rows         [][]uint64
	hashSeeds    []uint64
}

// NewCountMin creates a count-min sketch. Panics on bad dimensions.
func NewCountMin(depth, width int, seed uint64) *CountMin {
	if depth <= 0 || width <= 0 {
		panic(fmt.Sprintf("sketch: bad dimensions %d×%d", depth, width))
	}
	rows := make([][]uint64, depth)
	for i := range rows {
		rows[i] = make([]uint64, width)
	}
	return &CountMin{depth: depth, width: width, rows: rows, hashSeeds: seeds(depth, seed)}
}

// Update adds count occurrences of key.
func (cm *CountMin) Update(key uint64, count uint64) {
	for r := 0; r < cm.depth; r++ {
		col := rowHash(cm.hashSeeds[r], key) % uint64(cm.width)
		cm.rows[r][col] += count
	}
}

// Estimate returns the (over-)estimated frequency of key.
func (cm *CountMin) Estimate(key uint64) uint64 {
	var min uint64
	for r := 0; r < cm.depth; r++ {
		col := rowHash(cm.hashSeeds[r], key) % uint64(cm.width)
		if v := cm.rows[r][col]; r == 0 || v < min {
			min = v
		}
	}
	return min
}

// TopK tracks the k keys with the highest estimated frequencies, fed by
// any estimator.
type TopK struct {
	k      int
	counts map[uint64]int64
}

// NewTopK creates a tracker for the k most frequent keys. Panics if k <= 0.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("sketch: NewTopK requires k > 0")
	}
	return &TopK{k: k, counts: make(map[uint64]int64)}
}

// Offer reports key with its current frequency estimate.
func (t *TopK) Offer(key uint64, estimate int64) {
	if _, tracked := t.counts[key]; tracked {
		t.counts[key] = estimate
		return
	}
	if len(t.counts) < t.k {
		t.counts[key] = estimate
		return
	}
	// Replace the current minimum if the newcomer beats it.
	var minKey uint64
	minVal := int64(1<<63 - 1)
	for k, v := range t.counts {
		if v < minVal {
			minKey, minVal = k, v
		}
	}
	if estimate > minVal {
		delete(t.counts, minKey)
		t.counts[key] = estimate
	}
}

// Entry is one (key, estimate) result.
type Entry struct {
	Key      uint64
	Estimate int64
}

// Items returns the tracked keys sorted by descending estimate.
func (t *TopK) Items() []Entry {
	out := make([]Entry, 0, len(t.counts))
	for k, v := range t.counts {
		out = append(out, Entry{Key: k, Estimate: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Estimate != out[j].Estimate {
			return out[i].Estimate > out[j].Estimate
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// TxCountSketch is a count sketch whose counters live in transactional
// memory. Concurrent speculative updates that touch disjoint counters
// proceed in parallel; colliding updates conflict and are serialized by
// the STM (aborting the newer transaction), exactly the behaviour the
// paper's Figure 5 sweeps.
type TxCountSketch struct {
	depth, width int
	counters     state.Array
	hashSeeds    []uint64
	signSeeds    []uint64
}

// NewTxCountSketch allocates the counter matrix in m.
func NewTxCountSketch(m *stm.Memory, depth, width int, seed uint64) (*TxCountSketch, error) {
	if depth <= 0 || width <= 0 {
		return nil, fmt.Errorf("sketch: bad dimensions %d×%d", depth, width)
	}
	arr, err := state.NewArray(m, depth*width)
	if err != nil {
		return nil, fmt.Errorf("alloc sketch counters: %w", err)
	}
	arr = arr.Named(m, "sketch")
	return &TxCountSketch{
		depth:     depth,
		width:     width,
		counters:  arr,
		hashSeeds: seeds(depth, seed),
		signSeeds: seeds(depth, seed^0xABCDEF0123456789),
	}, nil
}

func (cs *TxCountSketch) pos(row int, key uint64) (col int, sign int64) {
	col = int(rowHash(cs.hashSeeds[row], key) % uint64(cs.width))
	if rowHash(cs.signSeeds[row], key)&1 == 0 {
		return col, 1
	}
	return col, -1
}

// Update adds count occurrences of key within tx.
func (cs *TxCountSketch) Update(tx *stm.Tx, key uint64, count int64) error {
	for r := 0; r < cs.depth; r++ {
		col, sign := cs.pos(r, key)
		idx := r*cs.width + col
		cur, err := cs.counters.Get(tx, idx)
		if err != nil {
			return err
		}
		if err := cs.counters.Set(tx, idx, uint64(int64(cur)+sign*count)); err != nil {
			return err
		}
	}
	return nil
}

// Estimate returns the estimated frequency of key within tx.
func (cs *TxCountSketch) Estimate(tx *stm.Tx, key uint64) (int64, error) {
	var buf [medianInline]int64
	ests := rowEstimates(&buf, cs.depth)
	for r := 0; r < cs.depth; r++ {
		col, sign := cs.pos(r, key)
		v, err := cs.counters.Get(tx, r*cs.width+col)
		if err != nil {
			return 0, err
		}
		ests[r] = sign * int64(v)
	}
	return median(ests), nil
}
