package core

import (
	"math/rand"
	"sync"
)

// rowOrder hands every query of one OLA engine the same seeded row
// permutation. The order is a pure function of (seed, n), so the last one
// computed is kept and shared read-only; an append that changes n, or a
// different seed, replaces it. The zero value is ready to use.
type rowOrder struct {
	mu    sync.Mutex
	seed  int64
	order []int32
}

// of returns the permutation of [0, n) drawn from seed — the sequence
// rand.New(rand.NewSource(seed)).Perm(n) yields, built in place at half
// the width. Concurrent first callers wait for one computation.
func (o *rowOrder) of(seed int64, n int) []int32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.order == nil || o.seed != seed || len(o.order) != n {
		rng := rand.New(rand.NewSource(seed))
		order := make([]int32, n)
		for i := range order {
			j := rng.Intn(i + 1)
			order[i] = order[j]
			order[j] = int32(i)
		}
		o.seed, o.order = seed, order
	}
	return o.order
}
