package storage

import (
	"fmt"
	"slices"
)

// AppendGather appends src's rows at the given indexes, in order, copying
// straight from src's typed column slices: no Value is boxed per cell. A
// string column's codes are re-mapped into t's dictionary, values new to t
// taking codes in the order they are first met, so t ends exactly as if
// each row had been appended with AppendRow. t's schema is src's column
// types, optionally followed by one DOUBLE column (a stored sample's
// weight column); weights then holds its value for each gathered row, and
// is nil otherwise.
//
// Like AppendRows it is one atomic append: one lock and one Version bump,
// also for an empty index list. Every check runs before any column is
// touched, so on error t is unchanged. src may be live, even t itself: the
// rows are read from a snapshot of it.
func (t *Table) AppendGather(src *Table, rows []int, weights []float64) error {
	src = src.Snapshot()
	n := len(src.cols)
	weighted := len(t.cols) == n+1
	if !weighted && len(t.cols) != n {
		return fmt.Errorf("storage: gather %s into %s: %d columns for %d",
			src.name, t.name, n, len(t.cols))
	}
	for i, c := range src.cols {
		if c.Type() != t.schema[i].Type {
			return fmt.Errorf("storage: gather %s into %s: column %s is %v, want %v",
				src.name, t.name, t.schema[i].Name, c.Type(), t.schema[i].Type)
		}
	}
	if weighted && (t.schema[n].Type != TypeFloat64 || len(weights) != len(rows)) {
		return fmt.Errorf("storage: gather into %s: weight column %s takes %d DOUBLE values, got %d for a %v column",
			t.name, t.schema[n].Name, len(rows), len(weights), t.schema[n].Type)
	}
	if !weighted && weights != nil {
		return fmt.Errorf("storage: gather into %s: %d weights for a table with no weight column", t.name, len(weights))
	}
	for _, r := range rows {
		if r < 0 || r >= src.rows {
			return fmt.Errorf("storage: gather %s: row %d out of [0, %d)", src.name, r, src.rows)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, c := range t.cols {
		if sc, ok := c.(*StringColumn); ok {
			if err := sc.room(len(rows)); err != nil {
				return fmt.Errorf("storage: table %s column %s: %w", t.name, t.schema[i].Name, err)
			}
		}
	}
	for i, c := range src.cols {
		t.cols[i].gather(c, rows)
	}
	if weighted {
		c := t.cols[n].(*Float64Column)
		c.nulls.grow(len(weights))
		c.data = append(c.data, weights...)
	}
	t.rows += len(rows)
	t.version++
	return nil
}

// gatherData appends src[r] for every r in rows to dst.
func gatherData[T any](dst, src []T, rows []int) []T {
	dst = slices.Grow(dst, len(rows))
	for _, r := range rows {
		dst = append(dst, src[r])
	}
	return dst
}

// grow extends the marks by k non-NULL rows.
func (n *nullmap) grow(k int) {
	if m := len(*n); *n != nil {
		*n = slices.Grow(*n, k)[:m+k]
		clear((*n)[m:])
	}
}

// gather extends the marks of a column of size rows by src's marks at
// rows. Like append, it leaves a nil map nil until a NULL arrives.
func (n *nullmap) gather(size int, src nullmap, rows []int) {
	if src == nil {
		n.grow(len(rows))
		return
	}
	if *n == nil {
		first := slices.IndexFunc(rows, func(r int) bool { return src[r] })
		if first < 0 {
			return
		}
		*n = make([]bool, size+first, size+len(rows))
		rows = rows[first:]
	}
	*n = gatherData(*n, src, rows)
}

// gather implements Column.
func (c *Int64Column) gather(src Column, rows []int) {
	s := src.(*Int64Column)
	c.nulls.gather(len(c.data), s.nulls, rows)
	c.data = gatherData(c.data, s.data, rows)
}

// gather implements Column.
func (c *Float64Column) gather(src Column, rows []int) {
	s := src.(*Float64Column)
	c.nulls.gather(len(c.data), s.nulls, rows)
	c.data = gatherData(c.data, s.data, rows)
}

// gather implements Column.
func (c *BoolColumn) gather(src Column, rows []int) {
	s := src.(*BoolColumn)
	c.nulls.gather(len(c.data), s.nulls, rows)
	c.data = gatherData(c.data, s.data, rows)
}

// gather implements Column. Each src code met is interned once, in
// first-seen order, through a src → dst code table over src's dictionary.
func (c *StringColumn) gather(src Column, rows []int) {
	s := src.(*StringColumn)
	c.codes = slices.Grow(c.codes, len(rows))
	remap := make([]uint32, s.NumCodes()) // 0: not yet met (or NULL, which stays 0)
	for _, r := range rows {
		sc := s.codes[r]
		if sc != 0 && remap[sc] == 0 {
			remap[sc] = c.intern(s.keys[sc])
		}
		c.codes = append(c.codes, remap[sc])
	}
}
