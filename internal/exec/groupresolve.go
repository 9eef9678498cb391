package exec

// Typed group-key resolution for the morsel run loop.
//
// A group's identity is its canonical key string (groupKeyOf), but the run
// loop must not build that string — or box a storage.Value — per row. The
// resolver instead identifies a row's group by what storage already
// holds: the dictionary code of a string column, the raw int64 of an
// integer column. Within one morsel that typed identity maps one-to-one
// onto the canonical key, so the canonical key and the group's values are
// built only when a typed identity is first seen; the resolver numbers a
// morsel's groups in first-seen order and writes one such id per selected
// row, and the aggregate slots index the group list by it. Any other
// GROUP BY expression is evaluated per row and identified by its GroupKey.
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

// groupResolver maps table rows to the ids of one morsel's group states,
// for one worker. It keeps no state across morsels beyond reusable scratch.
type groupResolver struct {
	exprs []expr.Expr
	parts []groupPart
	row   mappedRow // adapts the table for evaluated parts

	list []*groupState // the morsel's groups, by id
	slab groupSlab

	// All parts are dictionary columns spanning at most maxDenseGroups
	// code tuples: the group is found by direct index.
	dicts   []*storage.StringColumn
	codes   [][]uint32 // the dicts' rows
	dense   []int32    // id+1 per code tuple; 0 = not seen in this morsel
	touched []int32    // code tuples filled by the current morsel

	// One integer column: by the raw int64.
	byInt   map[int64]int32
	nullInt int32 // the NULL key's id, -1 until seen

	// Otherwise: by the row's typed encoding.
	typed map[string]int32
	buf   []byte

	vals []storage.Value // scratch: the current row's group values
}

func newGroupResolver(exprs []expr.Expr, parts []groupPart, slots int, row mappedRow) *groupResolver {
	r := &groupResolver{exprs: exprs, parts: parts, row: row, slab: groupSlab{slots: slots},
		vals: make([]storage.Value, len(parts)), nullInt: -1}
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

// reset forgets the previous morsel's groups. Their states belong to the
// partial that morsel returned, so the slab starts a fresh chunk — sized
// for as many groups again.
func (r *groupResolver) reset() {
	for _, slot := range r.touched {
		r.dense[slot] = 0
	}
	r.touched = r.touched[:0]
	clear(r.byInt)
	r.nullInt = -1
	clear(r.typed)
	r.slab = groupSlab{slots: r.slab.slots, grow: len(r.list)}
	r.list = r.list[:0]
}

// resolve writes to gids the group id of every row of sel, creating a
// group in groups (the morsel's partial, keyed by canonical key) and in
// list when it is new.
func (r *groupResolver) resolve(sel, gids []int32, groups map[string]*groupState) error {
	switch {
	case r.dense != nil:
		// The code tuple's slot, a column at a time.
		gids = gids[:len(sel)]
		for c, codes := range r.codes {
			n := int32(r.dicts[c].NumCodes())
			if c == 0 {
				n = 0 // nothing to shift yet, whatever gids holds
			}
			for i, row := range sel {
				gids[i] = gids[i]*n + int32(codes[row])
			}
		}
		dense := r.dense
		for i, slot := range gids {
			id := dense[slot]
			if id == 0 {
				id = r.firstSeen(int(sel[i]), groups) + 1
				dense[slot] = id
				r.touched = append(r.touched, slot)
			}
			gids[i] = id - 1
		}
	case r.byInt != nil:
		keys, nulls := r.parts[0].ints.Ints(), r.parts[0].ints.Nulls()
		for i, row := range sel {
			if nulls != nil && nulls[row] {
				if r.nullInt < 0 {
					r.nullInt = r.firstSeen(int(row), groups)
				}
				gids[i] = r.nullInt
				continue
			}
			id, ok := r.byInt[keys[row]]
			if !ok {
				id = r.firstSeen(int(row), groups)
				r.byInt[keys[row]] = id
			}
			gids[i] = id
		}
	default:
		for i, row := range sel {
			id, err := r.resolveTyped(int(row), groups)
			if err != nil {
				return err
			}
			gids[i] = id
		}
	}
	return nil
}

// resolveTyped identifies the row's group by the concatenation of its
// parts' typed encodings.
func (r *groupResolver) resolveTyped(row int, groups map[string]*groupState) (int32, error) {
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
			r.row.idx = row
			v, err := r.exprs[i].Eval(r.row)
			if err != nil {
				return 0, err
			}
			r.vals[i] = v
			key := v.GroupKey()
			buf = append(binary.AppendUvarint(buf, uint64(len(key))), key...)
		}
	}
	r.buf = buf
	id, ok := r.typed[string(buf)]
	if !ok {
		id = r.firstSeen(row, groups)
		r.typed[string(buf)] = id
	}
	return id, nil
}

// firstSeen boxes the row's typed group values (evaluated parts are
// already in vals), builds the canonical key, and returns the id of that
// key's group state, adding it to groups and list if it is new.
func (r *groupResolver) firstSeen(row int, groups map[string]*groupState) int32 {
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
		gs = r.slab.newGroup(key, r.vals)
		groups[key] = gs
	}
	// New to the list: made just now, or made by the morsel's worker and met
	// again by the ordered merge, which resolves from an empty list.
	if !ok || int(gs.id) >= len(r.list) || r.list[gs.id] != gs {
		gs.id = int32(len(r.list))
		r.list = append(r.list, gs)
	}
	return gs.id
}

// typedPart is the typed access path to a column, if it has one.
func typedPart(col storage.Column) (p groupPart) {
	switch col := col.(type) {
	case *storage.StringColumn:
		p.dict = col
	case *storage.Int64Column:
		p.ints = col
	}
	return p
}

// groupSlab hands out one morsel's group states from chunks — a handful of
// allocations per chunk instead of per group. A full chunk is left to the
// groups that point into it and a new one started; nothing is re-sliced,
// so those pointers stay valid. A chunk holds grow groups, between
// minSlabGroups and maxSlabGroups, and the next one twice as many: a
// morsel with few groups stays small.
type groupSlab struct {
	slots, grow int
	groups      []groupState
	aggs        []aggState
	ptrs        []*aggState
	vals        []storage.Value
}

const minSlabGroups, maxSlabGroups = 8, 256

// newGroup is newGroupState out of the slab.
func (s *groupSlab) newGroup(key string, groupVal []storage.Value) *groupState {
	if len(s.groups) == cap(s.groups) {
		n := min(max(s.grow, minSlabGroups), maxSlabGroups)
		s.grow = 2 * n
		s.groups = make([]groupState, 0, n)
		s.aggs = make([]aggState, n*s.slots)
		s.ptrs = make([]*aggState, n*s.slots)
		s.vals = make([]storage.Value, n*len(groupVal))
	}
	at := len(s.groups)
	s.groups = append(s.groups, groupState{key: key})
	gs := &s.groups[at]
	gs.groupVal = s.vals[at*len(groupVal) : (at+1)*len(groupVal) : (at+1)*len(groupVal)]
	copy(gs.groupVal, groupVal)
	gs.aggs = s.ptrs[at*s.slots : (at+1)*s.slots : (at+1)*s.slots]
	for j := range gs.aggs {
		gs.aggs[j] = &s.aggs[at*s.slots+j]
	}
	return gs
}
