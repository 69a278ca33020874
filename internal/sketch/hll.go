package sketch

import (
	"fmt"
	"math"

	"streammine/internal/state"
	"streammine/internal/stm"
)

// hllParts splits a hashed key into (register index, rank).
func hllParts(precision uint, seed, key uint64) (int, uint8) {
	h := rowHash(seed, key)
	idx := int(h >> (64 - precision))
	rest := h<<precision | 1<<(precision-1) // guard bit bounds the rank
	rank := uint8(1)
	for rest&(1<<63) == 0 {
		rank++
		rest <<= 1
	}
	return idx, rank
}

// hllAlpha is the bias-correction constant.
func hllAlpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// hllEstimate turns a register snapshot into a cardinality estimate.
func hllEstimate(registers []uint8) uint64 {
	m := float64(len(registers))
	sum := 0.0
	zeros := 0
	for _, r := range registers {
		sum += math.Pow(2, -float64(r))
		if r == 0 {
			zeros++
		}
	}
	est := hllAlpha(len(registers)) * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		// Small-range correction: linear counting.
		est = m * math.Log(m/float64(zeros))
	}
	return uint64(est + 0.5)
}

// TxHyperLogLog estimates the number of distinct keys in a stream using
// 2^precision registers (Flajolet et al. 2007, with the standard
// linear-counting small-range correction). The registers live in STM
// memory, one word per register: byte-packing would create false
// conflicts between neighbouring registers under concurrent updates.
type TxHyperLogLog struct {
	precision uint
	seed      uint64
	registers state.Array
}

// NewTxHyperLogLog allocates the registers in m.
func NewTxHyperLogLog(mem *stm.Memory, precision uint, seed uint64) (*TxHyperLogLog, error) {
	if precision < 4 || precision > 16 {
		return nil, fmt.Errorf("sketch: HLL precision %d out of [4,16]", precision)
	}
	arr, err := state.NewArray(mem, 1<<precision)
	if err != nil {
		return nil, fmt.Errorf("alloc HLL registers: %w", err)
	}
	return &TxHyperLogLog{precision: precision, seed: seed, registers: arr}, nil
}

// Add observes a key within tx. Only the affected register is touched, so
// concurrent speculative updates rarely conflict.
func (h *TxHyperLogLog) Add(tx *stm.Tx, key uint64) error {
	idx, rank := hllParts(h.precision, h.seed, key)
	cur, err := h.registers.Get(tx, idx)
	if err != nil {
		return err
	}
	if uint64(rank) > cur {
		return h.registers.Set(tx, idx, uint64(rank))
	}
	return nil
}

// Estimate reads all registers within tx and estimates the cardinality.
func (h *TxHyperLogLog) Estimate(tx *stm.Tx) (uint64, error) {
	regs := make([]uint8, h.registers.Len())
	for i := range regs {
		v, err := h.registers.Get(tx, i)
		if err != nil {
			return 0, err
		}
		regs[i] = uint8(v)
	}
	return hllEstimate(regs), nil
}
