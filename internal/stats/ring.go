package stats

// Ring is a fixed-capacity window over the most recent values pushed:
// once full, each push evicts the oldest value. Every rolling window in
// the module (audit coverage, dedup set and ground-truth traces, workload
// sentinels, the flight recorder, the time-series store) is one; a ranked
// window (RollingQuantiles) keeps its values in order next to its ring.
// The zero value is unusable; construct with NewRing. Not safe for
// concurrent use — callers serialize access.
type Ring[T any] struct {
	buf  []T
	head int // index of the oldest value
	n    int // values held (≤ len(buf))
}

// NewRing creates an empty ring holding up to capacity values (minimum 1).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring[T]{buf: make([]T, capacity)}
}

// Push appends v. When the ring was full it evicts the oldest value and
// returns it with evicted true.
func (r *Ring[T]) Push(v T) (old T, evicted bool) {
	i := (r.head + r.n) % len(r.buf)
	if r.n == len(r.buf) {
		old, evicted = r.buf[i], true
		r.head = (r.head + 1) % len(r.buf)
	} else {
		r.n++
	}
	r.buf[i] = v
	return old, evicted
}

// N returns the number of values held.
func (r *Ring[T]) N() int { return r.n }

// Cap returns how many values the ring holds when full.
func (r *Ring[T]) Cap() int { return len(r.buf) }

// Full reports whether the next push evicts a value.
func (r *Ring[T]) Full() bool { return r.n == len(r.buf) }

// At returns the i-th held value, 0 being the oldest. It panics unless
// 0 <= i < N().
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic("stats: Ring index out of range")
	}
	return r.buf[(r.head+i)%len(r.buf)]
}

// AppendTo appends the held values to dst, oldest first, and returns the
// extended slice (dst itself, possibly nil, when the ring is empty).
func (r *Ring[T]) AppendTo(dst []T) []T {
	end := r.head + r.n
	if end <= len(r.buf) {
		return append(dst, r.buf[r.head:end]...)
	}
	dst = append(dst, r.buf[r.head:]...)
	return append(dst, r.buf[:end-len(r.buf)]...)
}
