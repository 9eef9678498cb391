package exec

// Joins on the morsel path.
//
// Plans join left-deep: each join's right-hand side, a Filter*→Scan, runs
// once per query on the same morsel loop (filter, sampler and counters
// included) into a terminal that collects its kept rows' ids and weights in
// storage order, which are indexed by join key. The scan then probes the
// index between its sampler and its fold: scanned rows go in and come out
// one position per joined pair — per probe row its matches in build order,
// a hash join's output order — with each side's table row at each position
// and the product of the sides' weights, so every later kernel reads a
// side's columns through those row ids.
//
// Keys compare as Value.GroupKey compares them: a single integer key (an
// integral float meets the equal integer) by its raw int64; any other —
// strings by value, since two tables' dictionaries differ, composite keys,
// expressions — by its canonical key, which the probe side resolves through
// a groupResolver once per distinct key and morsel. A NULL key part joins
// nothing.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/storage"
)

// joinStage is one join of a pipeline.
type joinStage struct {
	node   *plan.Join
	table  *storage.Table // the build scan's snapshot, which build row ids index
	outIdx []int          // the build scan's output columns in it
	index  keyIndex

	// Compiled against the pipeline's row.
	residual *rowFilter     // the ON residual, if any
	intKey   storage.Column // the probe key, when it is a single integer one
	keySide  int
	keyParts []groupPart // otherwise its typed parts
}

// keyIndex holds a build side's kept rows grouped by key, each key's in
// build order: key k's rows are rows[offs[k]:offs[k+1]], weighing ws. A
// single integer key's id is key-lo when the keys span a range not much
// wider than their count, else ints holds it; any other key's id is keys'.
type keyIndex struct {
	lo   int64
	ints map[int64]int32
	keys map[string]int32
	offs []int32
	rows []int32
	ws   []float64
}

func (ix *keyIndex) intKeyed() bool { return ix.keys == nil }

// intID is integer key k's id, or -1.
func (ix *keyIndex) intID(k int64) int32 {
	if ix.ints != nil {
		if id, ok := ix.ints[k]; ok {
			return id
		}
	} else if d := uint64(k - ix.lo); d < uint64(len(ix.offs)-1) {
		return int32(d)
	}
	return -1
}

// intKey reads an integer-comparable key: false for NULL, or for a float
// no integer equals under Value.GroupKey.
func intKey(col storage.Column, row int) (int64, bool) {
	switch c := col.(type) {
	case *storage.Int64Column:
		return c.Ints()[row], !c.IsNull(row)
	case *storage.Float64Column:
		f := c.Floats()[row]
		return int64(f), !c.IsNull(row) && f == float64(int64(f))
	}
	return 0, false
}

// build runs js's right-hand side on the morsel loop, under a "build
// <table>" span, and indexes its kept rows by join key.
func (op *morselRun) build(js *joinStage) error {
	t0 := time.Now()
	b, err := newMorselRun(op.ctx, js.node.Right, op.counters, op.workers, nil)
	if err != nil {
		return err
	}
	if len(b.joins) > 0 {
		return fmt.Errorf("exec: %s: the build side must be a scan", js.node.Explain())
	}
	b.sp = op.sp.NewChild("build " + b.scan.TableName)
	_, rows, err := b.run()
	if err != nil {
		return err
	}
	js.table, js.outIdx = b.view.tables[0], b.outIdx

	// A key id per kept row, -1 for a NULL key.
	ix, lk, rk := &js.index, js.node.LeftKeys, js.node.RightKeys
	kid := make([]int32, len(rows))
	var lcol, rcol storage.Column
	if l, ok := lk[0].(*expr.ColRef); ok && len(lk) == 1 {
		if r, ok := rk[0].(*expr.ColRef); ok {
			lcol, _ = op.view.column(l.Index)
			rcol, _ = b.view.column(r.Index)
		}
	}
	numeric := func(c storage.Column) bool {
		return c.Type() == storage.TypeInt64 || c.Type() == storage.TypeFloat64
	}
	nkeys := int32(0)
	if lcol != nil && numeric(lcol) && numeric(rcol) &&
		(lcol.Type() == storage.TypeInt64 || rcol.Type() == storage.TypeInt64) {
		keys, lo, hi := make([]int64, len(rows)), int64(math.MaxInt64), int64(math.MinInt64)
		for i, e := range rows {
			k, ok := intKey(rcol, int(e.row))
			if kid[i] = -1; ok {
				keys[i], kid[i], lo, hi = k, 0, min(lo, k), max(hi, k)
			}
		}
		ix.lo = lo
		if lo > hi || uint64(hi-lo) >= uint64(4*len(rows)+1024) {
			ix.ints = make(map[int64]int32)
		} else {
			nkeys = int32(hi - lo + 1)
		}
		for i, k := range keys {
			switch {
			case kid[i] < 0:
			case ix.ints == nil:
				kid[i] = int32(k - lo)
			default:
				if kid[i] = ix.intID(k); kid[i] < 0 {
					kid[i], ix.ints[k] = nkeys, nkeys
					nkeys++
				}
			}
		}
	} else {
		ix.keys = make(map[string]int32)
		vals, row := make([]storage.Value, len(rk)), mappedRow{v: &b.view}
		for i, e := range rows {
			kid[i], row.idx = -1, int(e.row)
			null := false
			for k, x := range rk {
				if vals[k], err = x.Eval(row); err != nil {
					return err
				}
				null = null || vals[k].IsNull()
			}
			if !null {
				key := sample.KeyOf(vals)
				id, seen := ix.keys[key]
				if !seen {
					id, ix.keys[key] = nkeys, nkeys
					nkeys++
				}
				kid[i] = id
			}
		}
	}
	// A counting sort by key id, stable: a key's rows stay in build order.
	n := int(nkeys)
	ix.offs = make([]int32, n+1)
	for _, k := range kid {
		if k >= 0 {
			ix.offs[k+1]++
		}
	}
	for k := 1; k <= n; k++ {
		ix.offs[k] += ix.offs[k-1]
	}
	next := append([]int32(nil), ix.offs[:n]...)
	ix.rows, ix.ws = make([]int32, ix.offs[n]), make([]float64, ix.offs[n])
	for i, k := range kid {
		if k >= 0 {
			ix.rows[next[k]], ix.ws[next[k]] = rows[i].row, rows[i].w
			next[k]++
		}
	}

	b.sp.AddTime(time.Since(t0))
	b.sp.AddRows(int64(len(rows)))
	return nil
}

// compile binds the probe side of js to the pipeline's row: its residual,
// and its key's column or typed parts.
func (js *joinStage) compile(c *compiler) {
	if js.node.Residual != nil {
		f := c.filter(js.node.Residual)
		js.residual = &f
	}
	if js.index.intKeyed() {
		js.intKey, js.keySide = c.column(js.node.LeftKeys[0].(*expr.ColRef).Index)
		return
	}
	js.keyParts = make([]groupPart, len(js.node.LeftKeys))
	for i, k := range js.node.LeftKeys {
		if ref, ok := k.(*expr.ColRef); ok {
			js.keyParts[i] = typedPart(c.column(ref.Index))
		}
	}
}

// probeLevel is one worker's vectors for probing one join: the joined rows
// of a chunk, by position.
type probeLevel struct {
	at        [][]int32 // per side up to the join's, the table row at each position
	ws        []float64
	sel, kids []int32 // positions; per probing row, its key id

	// A key without a raw int64: its typed identity, resolved once per
	// worker, and per resolved key its id in the index (-1: none).
	keys  *groupResolver
	kidOf []int32
}

func newProbeLevel(op *morselRun, js *joinStage, j, runCap int, sc *scratch) *probeLevel {
	lv := &probeLevel{at: make([][]int32, j+2), ws: make([]float64, runCap),
		sel: make([]int32, runCap), kids: make([]int32, runCap)}
	for s := range lv.at {
		lv.at[s] = make([]int32, runCap)
	}
	if ix := &js.index; !ix.intKeyed() {
		lv.keys = newGroupResolver(js.node.LeftKeys, js.keyParts, mappedRow{v: &op.view}, sc,
			func(key string, vals []storage.Value) int32 {
				id, ok := ix.keys[key]
				for _, v := range vals {
					ok = ok && !v.IsNull()
				}
				if !ok {
					id = -1
				}
				lv.kidOf = append(lv.kidOf, id)
				return int32(len(lv.kidOf) - 1)
			})
	}
	return lv
}

// probe joins the rows sel — scanned rows at the first join, positions of
// the join below after it — weighing ws, to join j's build side, and hands
// the joined rows on, at most a run at a time, to fold.
func (wk *morselWorker) probe(j int, sel []int32, ws []float64) error {
	js, lv := wk.op.joins[j], wk.levels[j]
	kids := lv.kids[:len(sel)]
	if err := wk.lookup(js, lv, sel, kids); err != nil {
		return err
	}
	// The probing row goes to side 0's vector; joined spreads it over the
	// sides below.
	offs, rows, bws := js.index.offs, js.index.rows, js.index.ws
	src, built, jws, n := lv.at[0], lv.at[j+1], lv.ws, 0
	for i, p := range sel {
		k := kids[i]
		if k < 0 {
			continue
		}
		for e := offs[k]; e < offs[k+1]; e++ {
			if n == len(jws) {
				if err := wk.joined(j, n); err != nil {
					return err
				}
				n = 0
			}
			src[n], built[n], jws[n] = p, rows[e], ws[i]*bws[e]
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return wk.joined(j, n)
}

// joined passes on the first n rows join j produced: its ON residual
// narrows them, then the next join probes them or they fold.
func (wk *morselWorker) joined(j int, n int) error {
	lv, below, ident := wk.levels[j], wk.sc.at, wk.sc.ident
	if below != nil {
		// The probing rows are positions of the join below: read each side's
		// row there, side 0 — which holds the positions — last.
		for s := len(below) - 1; s >= 0; s-- {
			for q, p := range lv.at[0][:n] {
				lv.at[s][q] = below[s][p]
			}
		}
	}
	sel, ws := lv.sel[:n], lv.ws[:n]
	for q := range sel {
		sel[q] = int32(q)
	}
	wk.sc.at, wk.sc.ident = lv.at, sel
	var err error
	if f := wk.op.joins[j].residual; f != nil {
		sel, ws, _, err = wk.narrow(*f, mappedRow{v: &wk.op.view, at: lv.at}, sel, ws, nil)
	}
	switch {
	case err != nil || len(sel) == 0:
	case j+1 < len(wk.levels):
		err = wk.probe(j+1, sel, ws)
	default:
		err = wk.fold(sel, 1, ws, nil, false)
	}
	wk.sc.at, wk.sc.ident = below, ident
	return err
}

// lookup writes each row's key id in js's index to kids: -1 when its key
// has a NULL part or no build row.
func (wk *morselWorker) lookup(js *joinStage, lv *probeLevel, sel, kids []int32) error {
	ix := &js.index
	if ix.intKeyed() {
		rows := wk.sc.rowsOf(js.keySide, sel)
		if col, ok := js.intKey.(*storage.Int64Column); ok {
			data, nulls := col.Ints(), col.Nulls()
			for i, r := range rows {
				if kids[i] = ix.intID(data[r]); nulls != nil && nulls[r] {
					kids[i] = -1
				}
			}
			return nil
		}
		for i, r := range rows {
			kids[i] = -1
			if k, ok := intKey(js.intKey, int(r)); ok {
				kids[i] = ix.intID(k)
			}
		}
		return nil
	}
	gids := wk.sc.gids[:len(sel)]
	if err := lv.keys.resolve(sel, gids); err != nil {
		return err
	}
	for i, g := range gids {
		kids[i] = lv.kidOf[g]
	}
	return nil
}
