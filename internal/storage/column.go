package storage

import (
	"fmt"
	"math"
)

// Column is an append-only typed vector of values with optional NULLs.
type Column interface {
	// Type returns the column's element type.
	Type() Type
	// Len returns the number of rows stored.
	Len() int
	// Value returns the i-th value.
	Value(i int) Value
	// Append adds a value; it must match the column type or be NULL.
	Append(v Value) error
	// IsNull reports whether the i-th value is NULL.
	IsNull(i int) bool
	// gather appends src's values at rows, in order; src has the same
	// type. It is what Append of each src.Value(r) would do, without
	// boxing a Value per row.
	gather(src Column, rows []int)
	// extent records how far the column reaches, for truncate.
	extent() extent
	// truncate cuts the column back to an extent it had before, undoing
	// a refused append, in time proportional to what it cuts.
	truncate(e extent)
	// snapshot returns a read-only view of the column as of now. Because
	// columns are append-only, the rows below the captured length never
	// mutate; copying the slice headers is enough to make the view safe
	// against concurrent appends (which may grow or reallocate the live
	// slices but never touch the captured prefix). Must be called with the
	// owning table's lock held so the headers are read consistently.
	snapshot() Column
}

// NewColumn allocates an empty column of the given type.
func NewColumn(t Type) Column {
	switch t {
	case TypeInt64:
		return &Int64Column{}
	case TypeFloat64:
		return &Float64Column{}
	case TypeString:
		return &StringColumn{}
	case TypeBool:
		return &BoolColumn{}
	default:
		panic(fmt.Sprintf("storage: NewColumn of invalid type %v", t))
	}
}

type nullmap []bool

func (n nullmap) isNull(i int) bool { return n != nil && n[i] }

func (n *nullmap) append(size int, null bool) {
	if *n == nil {
		if !null {
			return
		}
		*n = make([]bool, size)
	}
	*n = append(*n, null)
}

// Int64Column stores 64-bit integers.
type Int64Column struct {
	data  []int64
	nulls nullmap
}

// Type implements Column.
func (c *Int64Column) Type() Type { return TypeInt64 }

// Len implements Column.
func (c *Int64Column) Len() int { return len(c.data) }

// IsNull implements Column.
func (c *Int64Column) IsNull(i int) bool { return c.nulls.isNull(i) }

// Value implements Column.
func (c *Int64Column) Value(i int) Value {
	if c.nulls.isNull(i) {
		return NullValue(TypeInt64)
	}
	return Int64(c.data[i])
}

// Int returns the raw int64 at i (0 for NULL).
func (c *Int64Column) Int(i int) int64 { return c.data[i] }

// Ints returns the column's values (0 for NULL), one per row. The slice is
// the column's storage: read-only, and on a snapshot it never changes.
func (c *Int64Column) Ints() []int64 { return c.data }

// Nulls returns the column's NULL marks, one per row, or nil when no row
// is NULL. Read-only, like Ints.
func (c *Int64Column) Nulls() []bool { return c.nulls }

// Append implements Column.
func (c *Int64Column) Append(v Value) error {
	if v.IsNull() {
		c.nulls.append(len(c.data), true)
		c.data = append(c.data, 0)
		return nil
	}
	if !v.Typ.Numeric() {
		return fmt.Errorf("storage: append %v to BIGINT column", v.Typ)
	}
	c.nulls.append(len(c.data), false)
	c.data = append(c.data, v.AsInt())
	return nil
}

// Float64Column stores 64-bit floats.
type Float64Column struct {
	data  []float64
	nulls nullmap
}

// Type implements Column.
func (c *Float64Column) Type() Type { return TypeFloat64 }

// Len implements Column.
func (c *Float64Column) Len() int { return len(c.data) }

// IsNull implements Column.
func (c *Float64Column) IsNull(i int) bool { return c.nulls.isNull(i) }

// Value implements Column.
func (c *Float64Column) Value(i int) Value {
	if c.nulls.isNull(i) {
		return NullValue(TypeFloat64)
	}
	return Float64(c.data[i])
}

// Float returns the raw float64 at i (0 for NULL).
func (c *Float64Column) Float(i int) float64 { return c.data[i] }

// Floats returns the column's values (0 for NULL), one per row. The slice
// is the column's storage: read-only, and on a snapshot it never changes.
func (c *Float64Column) Floats() []float64 { return c.data }

// Nulls returns the column's NULL marks, one per row, or nil when no row
// is NULL. Read-only, like Floats.
func (c *Float64Column) Nulls() []bool { return c.nulls }

// Append implements Column.
func (c *Float64Column) Append(v Value) error {
	if v.IsNull() {
		c.nulls.append(len(c.data), true)
		c.data = append(c.data, 0)
		return nil
	}
	if !v.Typ.Numeric() {
		return fmt.Errorf("storage: append %v to DOUBLE column", v.Typ)
	}
	c.nulls.append(len(c.data), false)
	c.data = append(c.data, v.AsFloat())
	return nil
}

// nullKey is the canonical group key of NULL (Value.GroupKey of a NULL).
const nullKey = "\x00N"

// StringColumn stores strings dictionary-encoded: one uint32 code per row
// into an append-only dictionary of the distinct values seen so far. Code
// 0 is reserved for NULL, so a row's code alone decides both its value and
// its NULL-ness. Each dictionary entry holds the value's canonical group
// key ("s"+value, Value.GroupKey's rendering; NULL's key for code 0), from
// which the value itself is the suffix — one allocation per distinct
// string serves Value, grouping, join hashing and sampler strata.
//
// Both slices are append-only, so a snapshot (a copy of the two slice
// headers) stays valid under concurrent appends: every code in the
// captured prefix indexes the captured dictionary prefix. The value→code
// index is the writer's alone and is never carried into a snapshot.
type StringColumn struct {
	codes []uint32
	keys  []string          // canonical group key per code; keys[0] is NULL's
	index map[string]uint32 // value → code; nil on snapshots and the zero value
}

// Type implements Column.
func (c *StringColumn) Type() Type { return TypeString }

// Len implements Column.
func (c *StringColumn) Len() int { return len(c.codes) }

// IsNull implements Column.
func (c *StringColumn) IsNull(i int) bool { return c.codes[i] == 0 }

// Value implements Column.
func (c *StringColumn) Value(i int) Value {
	code := c.codes[i]
	if code == 0 {
		return NullValue(TypeString)
	}
	return Str(c.keys[code][1:])
}

// Code returns the dictionary code of row i; 0 means NULL.
func (c *StringColumn) Code(i int) uint32 { return c.codes[i] }

// Codes returns the dictionary code of every row; 0 means NULL. The slice
// is the column's storage: read-only, and on a snapshot it never changes.
func (c *StringColumn) Codes() []uint32 { return c.codes }

// NumCodes returns the dictionary size including the NULL code, so every
// row's code is below it.
func (c *StringColumn) NumCodes() int {
	if len(c.keys) == 0 {
		return 1
	}
	return len(c.keys)
}

// RowKey returns the canonical group key (Value.GroupKey) of row i
// without boxing a Value.
func (c *StringColumn) RowKey(i int) string {
	code := c.codes[i]
	if code == 0 {
		return nullKey
	}
	return c.keys[code]
}

// Lookup returns the code of s, or false when no row holds it. On the
// writer's column it is a map probe; on a snapshot, which carries no
// index, it scans the dictionary — once per literal per query, in place
// of a string comparison per row.
func (c *StringColumn) Lookup(s string) (uint32, bool) {
	if c.index != nil {
		code, ok := c.index[s]
		return code, ok
	}
	for code := 1; code < len(c.keys); code++ {
		if c.keys[code][1:] == s {
			return uint32(code), true
		}
	}
	return 0, false
}

// Append implements Column.
func (c *StringColumn) Append(v Value) error {
	if v.IsNull() {
		c.codes = append(c.codes, 0)
		return nil
	}
	if v.Typ != TypeString {
		return fmt.Errorf("storage: append %v to VARCHAR column", v.Typ)
	}
	if code, ok := c.index[v.S]; ok {
		c.codes = append(c.codes, code)
		return nil
	}
	if err := c.room(1); err != nil {
		return err
	}
	c.codes = append(c.codes, c.intern("s"+v.S))
	return nil
}

// room reports an error when n more distinct values might not fit the
// dictionary's uint32 codes. Callers check it before appending anything,
// so a full dictionary leaves the column unchanged.
func (c *StringColumn) room(n int) error {
	if uint64(c.NumCodes())+uint64(n) > math.MaxUint32+1 {
		return fmt.Errorf("storage: VARCHAR column dictionary is full")
	}
	return nil
}

// intern returns the code of the value whose canonical key ("s"+value) is
// key, adding key to the dictionary when the value is new.
func (c *StringColumn) intern(key string) uint32 {
	if c.index == nil {
		c.index = make(map[string]uint32, len(c.keys))
		if len(c.keys) == 0 {
			c.keys = append(c.keys, nullKey)
		}
		for code := 1; code < len(c.keys); code++ {
			c.index[c.keys[code][1:]] = uint32(code)
		}
	}
	code, ok := c.index[key[1:]]
	if !ok {
		code = uint32(len(c.keys))
		c.keys = append(c.keys, key)
		c.index[key[1:]] = code
	}
	return code
}

// CodeSpace returns the number of code tuples of the dictionary columns —
// the product of their dictionary sizes — or 0 when it exceeds limit.
func CodeSpace(cols []*StringColumn, limit int) int {
	space := 1
	for _, c := range cols {
		if n := c.NumCodes(); n <= limit/space {
			space *= n
		} else {
			return 0
		}
	}
	return space
}

// CodeSlot numbers row i's code tuple within the columns' CodeSpace.
func CodeSlot(cols []*StringColumn, i int) int {
	slot := 0
	for _, c := range cols {
		slot = slot*c.NumCodes() + int(c.codes[i])
	}
	return slot
}

// BoolColumn stores booleans.
type BoolColumn struct {
	data  []bool
	nulls nullmap
}

// Type implements Column.
func (c *BoolColumn) Type() Type { return TypeBool }

// Len implements Column.
func (c *BoolColumn) Len() int { return len(c.data) }

// IsNull implements Column.
func (c *BoolColumn) IsNull(i int) bool { return c.nulls.isNull(i) }

// Value implements Column.
func (c *BoolColumn) Value(i int) Value {
	if c.nulls.isNull(i) {
		return NullValue(TypeBool)
	}
	return Bool(c.data[i])
}

// Append implements Column.
func (c *BoolColumn) Append(v Value) error {
	if v.IsNull() {
		c.nulls.append(len(c.data), true)
		c.data = append(c.data, false)
		return nil
	}
	if v.Typ != TypeBool {
		return fmt.Errorf("storage: append %v to BOOLEAN column", v.Typ)
	}
	c.nulls.append(len(c.data), false)
	c.data = append(c.data, v.B)
	return nil
}

// snapshot implements Column.
func (c *Int64Column) snapshot() Column { cp := *c; return &cp }

// snapshot implements Column.
func (c *Float64Column) snapshot() Column { cp := *c; return &cp }

// snapshot implements Column.
func (c *StringColumn) snapshot() Column { return &StringColumn{codes: c.codes, keys: c.keys} }

// snapshot implements Column.
func (c *BoolColumn) snapshot() Column { cp := *c; return &cp }

// extent is how far a column reaches: its rows, whether it has NULL marks
// yet, and its dictionary size (string columns).
type extent struct {
	rows, keys int
	nulls      bool
}

// truncate cuts the marks back to rows; they go back to nil when they
// were nil then.
func (m *nullmap) truncate(e extent) {
	if !e.nulls {
		*m = nil
	} else {
		*m = (*m)[:e.rows]
	}
}

// extent implements Column.
func (c *Int64Column) extent() extent { return extent{rows: len(c.data), nulls: c.nulls != nil} }

// extent implements Column.
func (c *Float64Column) extent() extent { return extent{rows: len(c.data), nulls: c.nulls != nil} }

// extent implements Column.
func (c *BoolColumn) extent() extent { return extent{rows: len(c.data), nulls: c.nulls != nil} }

// extent implements Column.
func (c *StringColumn) extent() extent { return extent{rows: len(c.codes), keys: len(c.keys)} }

// truncate implements Column.
func (c *Int64Column) truncate(e extent) { c.data = c.data[:e.rows]; c.nulls.truncate(e) }

// truncate implements Column.
func (c *Float64Column) truncate(e extent) { c.data = c.data[:e.rows]; c.nulls.truncate(e) }

// truncate implements Column.
func (c *BoolColumn) truncate(e extent) { c.data = c.data[:e.rows]; c.nulls.truncate(e) }

// truncate implements Column. The values interned since e leave the
// dictionary and its index.
func (c *StringColumn) truncate(e extent) {
	c.codes = c.codes[:e.rows]
	for code := max(e.keys, 1); code < len(c.keys); code++ {
		delete(c.index, c.keys[code][1:])
	}
	c.keys = c.keys[:e.keys]
	if e.keys == 0 {
		c.index = nil
	}
}
