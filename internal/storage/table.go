package storage

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// DefaultBlockSize is the number of rows per logical storage block. Block
// sampling (TABLESAMPLE SYSTEM) selects whole blocks of this size.
const DefaultBlockSize = 1024

// ColumnDef describes one column of a table schema.
type ColumnDef struct {
	Name string
	Type Type
}

// Schema is an ordered list of column definitions.
type Schema []ColumnDef

// ColumnIndex returns the index of the named column, or -1.
func (s Schema) ColumnIndex(name string) int {
	for i, c := range s {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the column names in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, c := range s {
		out[i] = c.Name
	}
	return out
}

// Clone returns a deep copy of the schema.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Table is an append-only columnar table divided into fixed-size blocks.
type Table struct {
	name      string
	schema    Schema
	cols      []Column
	blockSize int
	rows      int
	version   uint64 // bumped on every append batch; used for staleness
	mu        sync.RWMutex
}

// NewTable creates an empty table with the given schema and the default
// block size.
func NewTable(name string, schema Schema) *Table {
	return NewTableWithBlockSize(name, schema, DefaultBlockSize)
}

// NewTableWithBlockSize creates an empty table with an explicit block size.
func NewTableWithBlockSize(name string, schema Schema, blockSize int) *Table {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	cols := make([]Column, len(schema))
	for i, def := range schema {
		cols[i] = NewColumn(def.Type)
	}
	return &Table{name: name, schema: schema.Clone(), cols: cols, blockSize: blockSize}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema (shared; do not mutate).
func (t *Table) Schema() Schema { return t.schema }

// NumRows returns the current row count.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// BlockSize returns the rows-per-block granularity.
func (t *Table) BlockSize() int { return t.blockSize }

// Version returns a counter incremented on every AppendRow/AppendRows call;
// offline sample catalogs use it to detect staleness.
func (t *Table) Version() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Snapshot returns a consistent read-only view of the table as of now:
// a detached Table whose row count and column slice headers are frozen
// under the table lock. Because storage is append-only, the frozen prefix
// never mutates, so a snapshot may be scanned freely while writers keep
// appending to the live table. Concurrent query execution takes a
// snapshot per scan; direct Column/Row access on a live table is only
// safe when no writer is active.
func (t *Table) Snapshot() *Table {
	t.mu.RLock()
	defer t.mu.RUnlock()
	cols := make([]Column, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.snapshot()
	}
	return &Table{
		name:      t.name,
		schema:    t.schema,
		cols:      cols,
		blockSize: t.blockSize,
		rows:      t.rows,
		version:   t.version,
	}
}

// Column returns the i-th column.
func (t *Table) Column(i int) Column { return t.cols[i] }

// Row materializes row i as a slice of values.
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.cols))
	for c, col := range t.cols {
		out[c] = col.Value(i)
	}
	return out
}

// AppendRow appends one row. The number of values must match the schema.
func (t *Table) AppendRow(vals ...Value) error {
	return t.AppendRows([][]Value{vals})
}

// AppendRows appends a batch of rows atomically with respect to readers of
// NumRows and Version. A batch goes in whole or not at all: at a row of
// the wrong arity or a value of the wrong type, every column is cut back
// to its extent before the batch, so the table, Version included, is as
// it was. The values are checked as they are appended, not in a pass of
// their own, so each row is read once.
func (t *Table) AppendRows(rows [][]Value) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var buf [8]extent // up to 8 columns, the marks allocate nothing
	marks := buf[:0]
	for _, c := range t.cols {
		marks = append(marks, c.extent())
	}
	for _, vals := range rows {
		if err := t.appendRow(vals); err != nil {
			for i, c := range t.cols {
				c.truncate(marks[i])
			}
			return err
		}
	}
	t.rows += len(rows)
	t.version++
	return nil
}

// appendRow appends one row's values to the columns, stopping at the first
// the schema refuses. Called with t.mu held.
func (t *Table) appendRow(vals []Value) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("storage: table %s: row has %d values, schema has %d columns",
			t.name, len(vals), len(t.cols))
	}
	for i, v := range vals {
		if err := t.cols[i].Append(v); err != nil {
			return fmt.Errorf("storage: table %s column %s: %w", t.name, t.schema[i].Name, err)
		}
	}
	return nil
}

// ColumnStats summarizes one column for planning and sampling decisions.
type ColumnStats struct {
	Name          string
	Type          Type
	NullCount     int
	Min, Max      Value
	DistinctCount int     // exact over scanned rows
	Mean          float64 // numeric columns only
	Variance      float64 // population variance, numeric columns only
}

// Stats computes column statistics with a full scan. It is intentionally
// exact: the planner experiments need ground truth to compare against.
// The scan runs over a snapshot, so it is safe under concurrent appends.
func (t *Table) Stats(colName string) (ColumnStats, error) {
	idx := t.schema.ColumnIndex(colName)
	if idx < 0 {
		return ColumnStats{}, fmt.Errorf("storage: table %s has no column %s", t.name, colName)
	}
	col := t.Snapshot().cols[idx]
	st := ColumnStats{Name: colName, Type: col.Type()}
	distinct := make(map[string]struct{})
	var n float64
	var mean, m2 float64
	for i := 0; i < col.Len(); i++ {
		if col.IsNull(i) {
			st.NullCount++
			continue
		}
		v := col.Value(i)
		distinct[v.GroupKey()] = struct{}{}
		if st.Min.IsNull() || v.Compare(st.Min) < 0 {
			st.Min = v
		}
		if st.Max.IsNull() || v.Compare(st.Max) > 0 {
			st.Max = v
		}
		if col.Type().Numeric() {
			x := v.AsFloat()
			n++
			d := x - mean
			mean += d / n
			m2 += d * (x - mean)
		}
	}
	st.DistinctCount = len(distinct)
	if n > 0 {
		st.Mean = mean
		st.Variance = m2 / n
	}
	return st, nil
}

// Catalog is a named collection of tables.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// parent, on an overlay, resolves the names the overlay does not hold.
	parent *Catalog
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// Add registers a table; replacing an existing table of the same name is an
// error.
func (c *Catalog) Add(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[t.Name()]; ok {
		return fmt.Errorf("storage: table %s already exists", t.Name())
	}
	c.tables[t.Name()] = t
	return nil
}

// Overlay returns a catalog in which name resolves to t and every other
// name resolves as in c. The engines plan against one to put a
// materialized sample, or a shard's partition, in a base table's place; c
// itself is left alone.
func (c *Catalog) Overlay(name string, t *Table) *Catalog {
	return &Catalog{tables: map[string]*Table{name: t}, parent: c}
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	t, ok := c.tables[name]
	c.mu.RUnlock()
	switch {
	case ok:
		return t, nil
	case c.parent != nil:
		return c.parent.Table(name)
	}
	return nil, fmt.Errorf("storage: unknown table %q", name)
}

// Names returns the sorted table names.
func (c *Catalog) Names() []string {
	var out []string
	if c.parent != nil {
		out = c.parent.Names()
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for n := range c.tables {
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
