package exec

// Typed group-key resolution for the morsel row loop.
//
// A group's identity is its canonical key string (groupKeyOf), but the row
// loop must not build that string — or box a storage.Value — per row. The
// resolver instead identifies a row's group by what storage already
// holds: the dictionary code of a string column, the raw int64 of an
// integer column. Within one morsel that typed identity maps one-to-one
// onto the canonical key, so the canonical key and the group's values are
// built only when a typed identity is first seen, and the row loop
// allocates per group, not per row. Any other GROUP BY expression is
// evaluated per row and identified by its GroupKey, as before.
//
// The partial a morsel returns is still keyed by canonical key, and rows
// still accumulate into their group in row order, so nothing downstream —
// merge order, finalize order, the float operation sequence — changes.

import (
	"encoding/binary"

	"repro/internal/expr"
	"repro/internal/storage"
)

// maxDenseGroups bounds the direct-indexed group table used when every
// GROUP BY expression is a dictionary column; a larger code space goes
// through the typed-key map.
const maxDenseGroups = 1 << 12

// groupPart is the typed access path of one GROUP BY expression; with
// neither column set the expression is evaluated per row.
type groupPart struct {
	dict *storage.StringColumn
	ints *storage.Int64Column
}

// groupResolver maps table rows to group states for one worker. It keeps
// no state across morsels beyond reusable scratch.
type groupResolver struct {
	exprs []expr.Expr
	parts []groupPart
	slots int // aggregate slots per group

	// All parts are dictionary columns spanning at most maxDenseGroups
	// code tuples: the group is found by direct index.
	dicts   []*storage.StringColumn
	dense   []*groupState
	touched []int // dense slots filled by the current morsel

	// Otherwise: by the row's typed encoding.
	typed map[string]*groupState
	buf   []byte

	vals []storage.Value // scratch: the current row's group values
}

func newGroupResolver(exprs []expr.Expr, parts []groupPart, slots int) *groupResolver {
	r := &groupResolver{exprs: exprs, parts: parts, slots: slots,
		vals: make([]storage.Value, len(parts))}
	for _, p := range parts {
		if p.dict != nil {
			r.dicts = append(r.dicts, p.dict)
		}
	}
	if len(r.dicts) == len(parts) {
		if space := storage.CodeSpace(r.dicts, maxDenseGroups); space > 0 {
			r.dense = make([]*groupState, space)
			return r
		}
	}
	r.typed = make(map[string]*groupState)
	return r
}

// reset forgets the previous morsel's groups.
func (r *groupResolver) reset() {
	for _, slot := range r.touched {
		r.dense[slot] = nil
	}
	r.touched = r.touched[:0]
	clear(r.typed)
}

// resolve returns the group state of the row, creating it in groups (the
// morsel's partial, keyed by canonical key) when the group is new. mr is
// consulted only by evaluated parts.
func (r *groupResolver) resolve(row int, mr mappedRow, groups map[string]*groupState) (*groupState, error) {
	if r.dense != nil {
		slot := storage.CodeSlot(r.dicts, row)
		gs := r.dense[slot]
		if gs == nil {
			gs = r.firstSeen(row, groups)
			r.dense[slot] = gs
			r.touched = append(r.touched, slot)
		}
		return gs, nil
	}
	buf := r.buf[:0]
	for i, p := range r.parts {
		switch {
		case p.dict != nil:
			buf = binary.LittleEndian.AppendUint32(buf, p.dict.Code(row))
		case p.ints != nil:
			if p.ints.IsNull(row) {
				buf = append(buf, 1)
			} else {
				buf = binary.LittleEndian.AppendUint64(append(buf, 0), uint64(p.ints.Int(row)))
			}
		default:
			v, err := r.exprs[i].Eval(mr)
			if err != nil {
				return nil, err
			}
			r.vals[i] = v
			key := v.GroupKey()
			buf = append(binary.AppendUvarint(buf, uint64(len(key))), key...)
		}
	}
	r.buf = buf
	gs, ok := r.typed[string(buf)]
	if !ok {
		gs = r.firstSeen(row, groups)
		r.typed[string(buf)] = gs
	}
	return gs, nil
}

// firstSeen boxes the row's typed group values (evaluated parts are
// already in vals), builds the canonical key, and returns that key's
// group state, adding it to groups if it is new.
func (r *groupResolver) firstSeen(row int, groups map[string]*groupState) *groupState {
	for i, p := range r.parts {
		switch {
		case p.dict != nil:
			r.vals[i] = p.dict.Value(row)
		case p.ints != nil:
			r.vals[i] = p.ints.Value(row)
		}
	}
	var key string
	if len(r.parts) == 1 && r.parts[0].dict != nil {
		key = r.parts[0].dict.RowKey(row)
	} else {
		key = groupKeyOf(r.vals)
	}
	gs, ok := groups[key]
	if !ok {
		gs = newGroupState(key, r.vals, r.slots)
		groups[key] = gs
	}
	return gs
}
