package sample

import "math/rand"

// Reservoir maintains a uniform without-replacement sample of fixed
// capacity k over a stream of unknown length (Algorithm R).
type Reservoir[T any] struct {
	k     int
	seen  int
	items []T
	rng   *rand.Rand
}

// NewReservoir returns an empty reservoir of capacity k.
func NewReservoir[T any](k int, seed int64) *Reservoir[T] {
	return &Reservoir[T]{k: k, rng: rand.New(rand.NewSource(seed))}
}

// Add offers one stream element to the reservoir.
func (r *Reservoir[T]) Add(item T) {
	r.seen++
	if len(r.items) < r.k {
		r.items = append(r.items, item)
		return
	}
	j := r.rng.Intn(r.seen)
	if j < r.k {
		r.items[j] = item
	}
}

// Items returns the current sample (shared slice; do not mutate).
func (r *Reservoir[T]) Items() []T { return r.items }
