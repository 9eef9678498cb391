package storage

import (
	"fmt"
	"sync"
	"testing"
)

// TestStringColumnRoundTrip appends a mix of repeated values, the empty
// string and NULLs and reads every row back through each accessor.
func TestStringColumnRoundTrip(t *testing.T) {
	in := []Value{
		Str("AIR"), Str("RAIL"), NullValue(TypeString), Str(""), Str("AIR"),
		Str("s"), Str("\x00N"), Str("RAIL"), NullValue(TypeString), Str(""),
	}
	c := &StringColumn{}
	for _, v := range in {
		if err := c.Append(v); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != len(in) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(in))
	}
	// NULL, "", AIR, RAIL, "s", "\x00N" — the NULL code plus five values.
	if c.NumCodes() != 6 {
		t.Errorf("NumCodes = %d, want 6", c.NumCodes())
	}
	for i, want := range in {
		got := c.Value(i)
		if got != want {
			t.Errorf("row %d: Value = %#v, want %#v", i, got, want)
		}
		if c.IsNull(i) != want.IsNull() {
			t.Errorf("row %d: IsNull = %v", i, c.IsNull(i))
		}
		if c.RowKey(i) != want.GroupKey() {
			t.Errorf("row %d: RowKey = %q, want %q", i, c.RowKey(i), want.GroupKey())
		}
		code := c.Code(i)
		if (code == 0) != want.IsNull() {
			t.Errorf("row %d: code %d for %v", i, code, want)
		}
	}
	// Equal values share a code; the empty string is a value, not NULL.
	if c.Code(0) != c.Code(4) || c.Code(3) != c.Code(9) || c.Code(3) == 0 || c.Code(3) == c.Code(2) {
		t.Errorf("codes %v %v %v %v %v", c.Code(0), c.Code(4), c.Code(3), c.Code(9), c.Code(2))
	}
	// A string spelled like NULL's group key is still an ordinary value.
	if c.Code(6) == 0 || c.RowKey(6) == c.RowKey(2) {
		t.Errorf("value %q collides with NULL", in[6].S)
	}
}

// TestStringColumnLookup checks literal resolution on the writer's column
// (map probe) and on a snapshot (dictionary scan), for present, absent and
// empty literals and across later appends.
func TestStringColumnLookup(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "s", Type: TypeString}})
	for _, s := range []string{"a", "b", "", "a"} {
		if err := tbl.AppendRow(Str(s)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.AppendRow(NullValue(TypeString)); err != nil {
		t.Fatal(err)
	}
	live := tbl.Column(0).(*StringColumn)
	snap := tbl.Snapshot().Column(0).(*StringColumn)
	if err := tbl.AppendRow(Str("late")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*StringColumn{live, snap} {
		for row, s := range []string{"a", "b", ""} { // the first three rows
			code, ok := c.Lookup(s)
			if !ok || code == 0 || code != c.Code(row) {
				t.Errorf("Lookup(%q) = %d, %v; row %d holds code %d", s, code, ok, row, c.Code(row))
			}
		}
		if _, ok := c.Lookup("absent"); ok {
			t.Error("Lookup(absent) found a code")
		}
	}
	if _, ok := live.Lookup("late"); !ok {
		t.Error("live column does not see the late value")
	}
	if _, ok := snap.Lookup("late"); ok {
		t.Error("snapshot sees a value appended after it was taken")
	}
	if snap.Len() != 5 || snap.NumCodes() != 4 {
		t.Errorf("snapshot Len=%d NumCodes=%d, want 5 and 4", snap.Len(), snap.NumCodes())
	}
}

// TestStringColumnHighCardinality stores one distinct string per row: the
// dictionary grows to the row count and every row still decodes.
func TestStringColumnHighCardinality(t *testing.T) {
	const n = 20_000
	c := NewColumn(TypeString).(*StringColumn)
	for i := 0; i < n; i++ {
		if err := c.Append(Str(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if c.NumCodes() != n+1 {
		t.Fatalf("NumCodes = %d, want %d", c.NumCodes(), n+1)
	}
	for i := 0; i < n; i += 997 {
		want := fmt.Sprintf("value-%d", i)
		if got := c.Value(i).S; got != want {
			t.Fatalf("row %d = %q, want %q", i, got, want)
		}
		if code, ok := c.Lookup(want); !ok || code != c.Code(i) {
			t.Fatalf("Lookup(%q) = %d, %v; row code %d", want, code, ok, c.Code(i))
		}
	}
	cols := []*StringColumn{c, c}
	if got := CodeSpace(cols, 1<<12); got != 0 {
		t.Errorf("CodeSpace over the limit = %d, want 0", got)
	}
}

// TestCodeSpaceAndSlot checks that code tuples number densely and
// distinctly within the columns' code space.
func TestCodeSpaceAndSlot(t *testing.T) {
	a, b := &StringColumn{}, &StringColumn{}
	for i := 0; i < 12; i++ {
		va, vb := Str(fmt.Sprint("a", i%3)), Str(fmt.Sprint("b", i%2))
		if i == 7 {
			va = NullValue(TypeString)
		}
		if err := a.Append(va); err != nil {
			t.Fatal(err)
		}
		if err := b.Append(vb); err != nil {
			t.Fatal(err)
		}
	}
	cols := []*StringColumn{a, b}
	space := CodeSpace(cols, 1<<12)
	if space != 4*3 {
		t.Fatalf("CodeSpace = %d, want 12", space)
	}
	bySlot := make(map[int]string)
	for i := 0; i < 12; i++ {
		slot := CodeSlot(cols, i)
		if slot < 0 || slot >= space {
			t.Fatalf("row %d: slot %d outside [0,%d)", i, slot, space)
		}
		key := a.RowKey(i) + "\x1f" + b.RowKey(i)
		if prev, ok := bySlot[slot]; ok && prev != key {
			t.Fatalf("slot %d holds both %q and %q", slot, prev, key)
		}
		bySlot[slot] = key
	}
	if CodeSpace(nil, 1<<12) != 1 {
		t.Error("CodeSpace of no columns must be 1")
	}
}

// TestStringColumnSnapshotUnderAppend reads snapshots while a writer keeps
// appending new and repeated values; run with -race. Every snapshot must
// decode its own prefix to exactly what was appended.
func TestStringColumnSnapshotUnderAppend(t *testing.T) {
	tbl := NewTable("t", Schema{{Name: "s", Type: TypeString}})
	valueOf := func(i int) Value {
		switch {
		case i%11 == 0:
			return NullValue(TypeString)
		case i%2 == 0:
			return Str(fmt.Sprintf("rep-%d", i%5)) // repeated: existing codes
		default:
			return Str(fmt.Sprintf("uniq-%d", i)) // new: grows the dictionary
		}
	}
	const total = 20_000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := make([][]Value, 0, 64)
		for i := 0; i < total; i++ {
			batch = append(batch, []Value{valueOf(i)})
			if len(batch) == cap(batch) {
				if err := tbl.AppendRows(batch); err != nil {
					t.Error(err)
					return
				}
				batch = batch[:0]
			}
		}
		if err := tbl.AppendRows(batch); err != nil {
			t.Error(err)
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				snap := tbl.Snapshot()
				col := snap.Column(0).(*StringColumn)
				n := snap.NumRows()
				if col.Len() != n {
					t.Errorf("snapshot rows %d but column Len %d", n, col.Len())
					return
				}
				for i := 0; i < n; i++ {
					want := valueOf(i)
					if got := col.Value(i); got != want {
						t.Errorf("snapshot of %d rows: row %d = %v, want %v", n, i, got, want)
						return
					}
					if int(col.Code(i)) >= col.NumCodes() {
						t.Errorf("row %d: code %d outside the snapshot's dictionary of %d", i, col.Code(i), col.NumCodes())
						return
					}
				}
				if n > 3 {
					if code, ok := col.Lookup("rep-2"); !ok || code != col.Code(2) {
						t.Errorf("snapshot Lookup(rep-2) = %d, %v", code, ok)
						return
					}
				}
				if n == total {
					return
				}
			}
		}()
	}
	wg.Wait()
}
