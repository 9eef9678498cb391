package exec

// Typed group-key resolution for the morsel run loop.
//
// A group's identity is its canonical key string (sample.KeyOf), but the run
// loop must not build that string — or box a storage.Value — per row. The
// resolver instead identifies a row's group by what storage already
// holds: the dictionary code of a string column, the raw int64 of an
// integer column. Within one scan a typed identity names one canonical key
// (two identities may name the same one), so a worker builds a key and its
// group values only when it first meets a typed identity, has the scan's
// groupDict number that key, and keeps the number for every later morsel;
// it writes one such run-wide id per selected row. Any other GROUP BY
// expression is evaluated per row and identified by its GroupKey.
//
// The ids only name groups: rows still accumulate into their group in row
// order and morsels merge in morsel order, so nothing downstream — merge
// order, finalize order, the float operation sequence — depends on them.

import (
	"encoding/binary"
	"sync"

	"repro/internal/expr"
	"repro/internal/sample"
	"repro/internal/storage"
)

// maxDenseGroups bounds the direct-indexed group table used when every
// GROUP BY expression is a dictionary column; a larger code space goes
// through the typed-key map.
const maxDenseGroups = 1 << 12

// maxDenseIntKey bounds the direct-indexed table of a single integer GROUP
// BY column: a key in [0, maxDenseIntKey) is found by index, in a table
// grown on demand to the largest such key met (at most 256 KiB a worker);
// NULL, a negative key and one past the bound go through the map.
const maxDenseIntKey = 1 << 16

// groupDict numbers the groups of one scan: a canonical key gets its
// run-wide id the first time any worker meets it, and the dictionary keeps
// the key and the values it was built from. The workers share it, and
// reach it only for a typed identity they have not met before.
type groupDict struct {
	mu    sync.Mutex
	ids   map[string]int32
	keys  []string        // by id
	vals  []storage.Value // width per id
	width int
}

func newGroupDict(width int) *groupDict {
	return &groupDict{ids: make(map[string]int32), width: width}
}

// id returns key's run-wide id, numbering it if it is new; vals are copied.
func (d *groupDict) id(key string, vals []storage.Value) int32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	id, ok := d.ids[key]
	if !ok {
		id = int32(len(d.keys))
		d.ids[key] = id
		d.keys = append(d.keys, key)
		d.vals = append(d.vals, vals...)
	}
	return id
}

// size returns how many keys have been numbered so far.
func (d *groupDict) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.keys)
}

// groupPart is the typed access path of one GROUP BY expression, a column
// of one side of the row; with neither column set the expression is
// evaluated per row.
type groupPart struct {
	dict *storage.StringColumn
	ints *storage.Int64Column
	side int
}

// groupResolver maps table rows to ids, for one worker: the first time it
// meets a typed identity it builds the canonical key and values and has
// newID number them, and it answers every later row of that identity, in
// any morsel, from its own tables.
type groupResolver struct {
	exprs []expr.Expr
	parts []groupPart
	row   mappedRow // adapts the table for evaluated parts
	sc    *scratch  // the worker's: where a join's positions are read
	rows  [][]int32 // per typed part, its table rows at the current selection

	// newID numbers a key met for the first time (vals is scratch), and
	// ids is one past the largest id it has returned.
	newID func(key string, vals []storage.Value) int32
	ids   int32

	// All parts are dictionary columns spanning at most maxDenseGroups
	// code tuples: the group is found by direct index.
	dicts []*storage.StringColumn
	codes [][]uint32 // the dicts' rows
	spans []uint32   // the dicts' code counts
	dense []int32    // id+1 per code tuple; 0 = not met yet

	// One integer column: by the raw int64, through denseInt (id+1 per
	// key; 0 = not met yet) for a key below maxDenseIntKey and through
	// byInt, made when first needed, for any other.
	ints     *storage.Int64Column
	denseInt []int32
	byInt    map[int64]int32
	nullInt  int32 // the NULL key's id, -1 until met

	// Otherwise: by the row's typed encoding.
	typed map[string]int32
	buf   []byte

	vals []storage.Value // scratch: the current row's group values
}

func newGroupResolver(exprs []expr.Expr, parts []groupPart, row mappedRow, sc *scratch,
	newID func(string, []storage.Value) int32) *groupResolver {
	r := &groupResolver{exprs: exprs, parts: parts, row: row, sc: sc, rows: make([][]int32, len(parts)),
		newID: newID, vals: make([]storage.Value, len(parts)), nullInt: -1}
	for _, p := range parts {
		if p.dict != nil {
			r.dicts = append(r.dicts, p.dict)
			r.codes = append(r.codes, p.dict.Codes())
			r.spans = append(r.spans, uint32(p.dict.NumCodes()))
		}
	}
	space := 0
	if len(r.dicts) == len(parts) {
		space = storage.CodeSpace(r.dicts, maxDenseGroups)
	}
	switch {
	case space > 0:
		r.dense = make([]int32, space)
	case len(parts) == 1 && parts[0].ints != nil:
		r.ints = parts[0].ints
	default:
		r.typed = make(map[string]int32)
	}
	return r
}

// resolve writes to ids the id of every row of sel.
func (r *groupResolver) resolve(sel, ids []int32) error {
	for c, p := range r.parts {
		if p.dict != nil || p.ints != nil {
			r.rows[c] = r.sc.rowsOf(p.side, sel)
		}
	}
	r.row.at = r.sc.at
	switch {
	case r.dense != nil:
		// The code tuple's slot, looked up as it is made: one pass over the
		// run, with the one- and two-column tuples spelled out.
		dense, codes, rows, spans := r.dense, r.codes, r.rows, r.spans
		codes0, rows0 := codes[0], rows[0]
		ids = ids[:len(rows0)]
		switch len(codes) {
		case 1:
			for i, row := range rows0 {
				id := dense[codes0[row]]
				if id == 0 {
					id = r.meet(codes0[row], i)
				}
				ids[i] = id - 1
			}
		case 2:
			codes1, rows1, span1 := codes[1], rows[1][:len(rows0)], spans[1]
			for i, row := range rows0 {
				slot := codes0[row]*span1 + codes1[rows1[i]]
				id := dense[slot]
				if id == 0 {
					id = r.meet(slot, i)
				}
				ids[i] = id - 1
			}
		default:
			for i, row := range rows0 {
				slot := codes0[row]
				for c := 1; c < len(codes); c++ {
					slot = slot*spans[c] + codes[c][rows[c][i]]
				}
				id := dense[slot]
				if id == 0 {
					id = r.meet(slot, i)
				}
				ids[i] = id - 1
			}
		}
	case r.ints != nil:
		keys, nulls := r.ints.Ints(), r.ints.Nulls()
		for i, row := range r.rows[0] {
			if nulls == nil || !nulls[row] {
				if k := uint64(keys[row]); k < uint64(len(r.denseInt)) {
					if id := r.denseInt[k]; id != 0 {
						ids[i] = id - 1
						continue
					}
				}
			}
			ids[i] = r.resolveInt(keys[row], nulls != nil && nulls[row], i)
		}
	default:
		for i, p := range sel {
			id, err := r.resolveTyped(i, int(p))
			if err != nil {
				return err
			}
			ids[i] = id
		}
	}
	return nil
}

// resolveInt identifies the i-th selected row, whose integer key k (or
// NULL) the dense table does not hold: the NULL key, a key to number and
// index, growing the table, or a key outside the table's bound.
func (r *groupResolver) resolveInt(k int64, null bool, i int) int32 {
	switch {
	case null:
		if r.nullInt < 0 {
			r.nullInt = r.firstSeen(i)
		}
		return r.nullInt
	case k >= 0 && k < maxDenseIntKey:
		if k >= int64(len(r.denseInt)) {
			grown := make([]int32, min(max(2*len(r.denseInt), int(k)+1, 64), maxDenseIntKey))
			copy(grown, r.denseInt)
			r.denseInt = grown
		}
		id := r.firstSeen(i)
		r.denseInt[k] = id + 1
		return id
	}
	id, ok := r.byInt[k]
	if !ok {
		if r.byInt == nil {
			r.byInt = make(map[int64]int32)
		}
		id = r.firstSeen(i)
		r.byInt[k] = id
	}
	return id
}

// meet numbers the code tuple at slot of the dense table, the i-th
// selected row's, the first time the worker meets it, and returns its id
// plus one.
func (r *groupResolver) meet(slot uint32, i int) int32 {
	id := r.firstSeen(i) + 1
	r.dense[slot] = id
	return id
}

// resolveTyped identifies the i-th selected row, at position pos, by the
// concatenation of its parts' typed encodings.
func (r *groupResolver) resolveTyped(i, pos int) (int32, error) {
	buf := r.buf[:0]
	for c, p := range r.parts {
		switch {
		case p.dict != nil:
			buf = binary.LittleEndian.AppendUint32(buf, p.dict.Code(int(r.rows[c][i])))
		case p.ints != nil:
			if row := int(r.rows[c][i]); p.ints.IsNull(row) {
				buf = append(buf, 1)
			} else {
				buf = binary.LittleEndian.AppendUint64(append(buf, 0), uint64(p.ints.Int(row)))
			}
		default:
			r.row.idx = pos
			v, err := r.exprs[c].Eval(r.row)
			if err != nil {
				return 0, err
			}
			r.vals[c] = v
			key := v.GroupKey()
			buf = append(binary.AppendUvarint(buf, uint64(len(key))), key...)
		}
	}
	r.buf = buf
	id, ok := r.typed[string(buf)]
	if !ok {
		id = r.firstSeen(i)
		r.typed[string(buf)] = id
	}
	return id, nil
}

// firstSeen boxes the i-th selected row's typed group values (evaluated
// parts are already in vals), builds the canonical key and returns the id
// newID gives them.
func (r *groupResolver) firstSeen(i int) int32 {
	for c, p := range r.parts {
		switch {
		case p.dict != nil:
			r.vals[c] = p.dict.Value(int(r.rows[c][i]))
		case p.ints != nil:
			r.vals[c] = p.ints.Value(int(r.rows[c][i]))
		}
	}
	var key string
	if len(r.parts) == 1 && r.parts[0].dict != nil {
		key = r.parts[0].dict.RowKey(int(r.rows[0][i]))
	} else {
		key = sample.KeyOf(r.vals)
	}
	id := r.newID(key, r.vals)
	r.ids = max(r.ids, id+1)
	return id
}

// typedPart is the typed access path to a column of the given side, if it
// has one.
func typedPart(col storage.Column, side int) (p groupPart) {
	p.side = side
	switch col := col.(type) {
	case *storage.StringColumn:
		p.dict = col
	case *storage.Int64Column:
		p.ints = col
	}
	return p
}
