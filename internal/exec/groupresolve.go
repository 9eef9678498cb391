package exec

// Typed group-key resolution for the morsel run loop.
//
// A group's identity is its canonical key string (groupKeyOf), but the run
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
	"repro/internal/storage"
)

// maxDenseGroups bounds the direct-indexed group table used when every
// GROUP BY expression is a dictionary column; a larger code space goes
// through the typed-key map.
const maxDenseGroups = 1 << 12

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

// values returns the group values of id.
func (d *groupDict) values(id int) []storage.Value {
	if d.width == 0 {
		return nil
	}
	return d.vals[id*d.width : (id+1)*d.width : (id+1)*d.width]
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
	dense []int32    // id+1 per code tuple; 0 = not met yet

	// One integer column: by the raw int64.
	byInt   map[int64]int32
	nullInt int32 // the NULL key's id, -1 until met

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
		r.byInt = make(map[int64]int32)
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
		// The code tuple's slot, a column at a time.
		ids = ids[:len(sel)]
		for c, codes := range r.codes {
			n := int32(r.dicts[c].NumCodes())
			if c == 0 {
				n = 0 // nothing to shift yet, whatever ids holds
			}
			for i, row := range r.rows[c] {
				ids[i] = ids[i]*n + int32(codes[row])
			}
		}
		dense := r.dense
		for i, slot := range ids {
			id := dense[slot]
			if id == 0 {
				id = r.firstSeen(i) + 1
				dense[slot] = id
			}
			ids[i] = id - 1
		}
	case r.byInt != nil:
		keys, nulls := r.parts[0].ints.Ints(), r.parts[0].ints.Nulls()
		for i, row := range r.rows[0] {
			if nulls != nil && nulls[row] {
				if r.nullInt < 0 {
					r.nullInt = r.firstSeen(i)
				}
				ids[i] = r.nullInt
				continue
			}
			id, ok := r.byInt[keys[row]]
			if !ok {
				id = r.firstSeen(i)
				r.byInt[keys[row]] = id
			}
			ids[i] = id
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
		key = groupKeyOf(r.vals)
	}
	id := r.newID(key, r.vals)
	r.ids = max(r.ids, id+1)
	return id
}

// groupKeyOf builds the canonical composite key of a value tuple.
func groupKeyOf(vals []storage.Value) string {
	if len(vals) == 0 {
		return ""
	}
	key := vals[0].GroupKey()
	for _, v := range vals[1:] {
		key += "\x1f" + v.GroupKey()
	}
	return key
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
