package sketch

import (
	"fmt"
	"math"
)

// CountMin is a Count-Min sketch: a compact frequency summary with
// one-sided error. Estimate(x) >= count(x) always, and
// Estimate(x) <= count(x) + ε·N with probability 1-δ, where
// ε = e/width and δ = e^-depth.
type CountMin struct {
	width uint32
	depth uint32
	cells []uint64
	seeds []uint64
	n     uint64
}

// NewCountMin allocates a sketch with the given error profile:
// ε (additive error as a fraction of the stream length) and δ
// (failure probability).
func NewCountMin(epsilon, delta float64) (*CountMin, error) {
	if epsilon <= 0 || epsilon >= 1 || delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("sketch: bad CountMin parameters ε=%v δ=%v", epsilon, delta)
	}
	width := uint32(math.Ceil(math.E / epsilon))
	depth := uint32(math.Ceil(math.Log(1 / delta)))
	if depth < 1 {
		depth = 1
	}
	cm := &CountMin{width: width, depth: depth,
		cells: make([]uint64, int(width)*int(depth)),
		seeds: make([]uint64, depth)}
	var s uint64 = 0x9e3779b97f4a7c15
	for i := range cm.seeds {
		s = mix64(s + uint64(i)*0xbf58476d1ce4e5b9)
		cm.seeds[i] = s
	}
	return cm, nil
}

func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func hashBytes(b []byte, seed uint64) uint64 {
	h := seed ^ 14695981039346656037
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return mix64(h)
}

// Add increments the count of key by delta.
func (cm *CountMin) Add(key string, delta uint64) {
	b := []byte(key)
	for d := uint32(0); d < cm.depth; d++ {
		idx := hashBytes(b, cm.seeds[d]) % uint64(cm.width)
		cm.cells[uint64(d)*uint64(cm.width)+idx] += delta
	}
	cm.n += delta
}

// Estimate returns the (over-)estimated count of key.
func (cm *CountMin) Estimate(key string) uint64 {
	b := []byte(key)
	var min uint64 = math.MaxUint64
	for d := uint32(0); d < cm.depth; d++ {
		idx := hashBytes(b, cm.seeds[d]) % uint64(cm.width)
		if c := cm.cells[uint64(d)*uint64(cm.width)+idx]; c < min {
			min = c
		}
	}
	if min == math.MaxUint64 {
		return 0
	}
	return min
}

// ErrorBound returns the additive error ε·N exceeded with probability at
// most δ.
func (cm *CountMin) ErrorBound() float64 {
	return math.E / float64(cm.width) * float64(cm.n)
}
