// Package detrand provides the replayable pseudo-random number generator
// used for non-deterministic operator decisions.
//
// Precise recovery (paper §2.2) requires that every random draw taken while
// processing an event be reproducible during replay. Two mechanisms are
// supported:
//
//  1. Seeded determinism: a Source seeded identically replays the same
//     sequence, so checkpointing the source state (a single uint64) makes
//     all later draws deterministic.
//  2. Draw logging: the operator context records each draw in the decision
//     log; during replay the logged values are fed back through a Replayer
//     instead of generating fresh ones.
//
// The generator is SplitMix64 (Steele et al.), chosen because its full
// state is one word — cheap to checkpoint and to log.
package detrand

import (
	"math"
)

// Source is a deterministic PRNG with single-word state.
//
// Source is not safe for concurrent use; each operator worker owns its own
// Source (draws are serialized through the transaction that takes them).
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next value in the sequence (SplitMix64 step).
func (s *Source) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It panics if n <= 0, mirroring math/rand.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("detrand: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// State returns the current generator state for checkpointing.
func (s *Source) State() uint64 { return s.state }

// Restore resets the generator to a previously checkpointed state.
func (s *Source) Restore(state uint64) { s.state = state }

// Fork derives an independent child source. The child sequence is
// deterministic given the parent state, so forking is itself replayable.
func (s *Source) Fork() *Source {
	return New(s.Uint64() ^ 0xD1B54A32D192ED03)
}

// Zipf draws from a Zipf distribution over [0, n) with exponent theta,
// using the rejection-inversion free cumulative method (precomputed CDF).
// It is used by the benchmark workload generators (skewed keys make sketch
// operators realistic).
type Zipf struct {
	src *Source
	cdf []float64
}

// NewZipf precomputes the distribution. It panics if n <= 0 — workload
// construction is program initialization, where panics are acceptable.
func NewZipf(src *Source, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("detrand: NewZipf with non-positive n")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1.0 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{src: src, cdf: cdf}
}

// Draw returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Draw() int {
	u := z.src.Float64()
	// Binary search for the first CDF entry >= u.
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
