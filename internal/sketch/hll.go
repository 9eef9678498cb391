package sketch

import (
	"fmt"
	"math"
	"math/bits"
)

// HyperLogLog estimates the number of distinct keys in a stream using
// 2^precision one-byte registers. Standard error is ~1.04/sqrt(2^p).
type HyperLogLog struct {
	p    uint8
	m    uint32
	regs []uint8
}

// NewHyperLogLog allocates a sketch with the given precision (4..18).
func NewHyperLogLog(precision uint8) (*HyperLogLog, error) {
	if precision < 4 || precision > 18 {
		return nil, fmt.Errorf("sketch: HLL precision %d out of [4,18]", precision)
	}
	m := uint32(1) << precision
	return &HyperLogLog{p: precision, m: m, regs: make([]uint8, m)}, nil
}

// Add observes one key.
func (h *HyperLogLog) Add(key string) {
	x := hashBytes([]byte(key), 0x1b873593)
	idx := x >> (64 - h.p)
	rest := x<<h.p | 1<<(h.p-1) // ensure nonzero
	rank := uint8(bits.LeadingZeros64(rest)) + 1
	if rank > h.regs[idx] {
		h.regs[idx] = rank
	}
}

// Estimate returns the cardinality estimate with the standard bias
// corrections (linear counting for small ranges).
func (h *HyperLogLog) Estimate() float64 {
	m := float64(h.m)
	var sum float64
	zeros := 0
	for _, r := range h.regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	switch h.m {
	case 16:
		alpha = 0.673
	case 32:
		alpha = 0.697
	case 64:
		alpha = 0.709
	}
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		// Linear counting for the small range.
		return m * math.Log(m/float64(zeros))
	}
	return e
}

// StdError returns the theoretical relative standard error.
func (h *HyperLogLog) StdError() float64 { return 1.04 / math.Sqrt(float64(h.m)) }
