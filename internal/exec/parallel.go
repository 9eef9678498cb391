package exec

// Morsel-driven parallel execution.
//
// Every plan runs here: the scan at the bottom of its left-deep chain is
// split into fixed, block-aligned row ranges ("morsels"), each morsel is
// processed on one of a pool of workers by a fused scan + filter + sample
// + join probe + fold pipeline, and the per-morsel results — partial
// aggregation states, or kept rows — are merged in ascending morsel order.
//
// Determinism: morsel boundaries depend only on the table (row count and
// block size) or, for a ranged scan, on the range — never on the worker
// count — and the reduction folds partials in morsel-index order, so every
// floating-point operation happens in the same sequence regardless of how
// many workers ran. A sampler decides a row from its index alone, except
// the distinct sampler, which counts rows per stratum: a morsel decides the
// rows its own count settles and the reduction, in morsel order, the rest.
// Results and confidence intervals are therefore bit-identical for any
// worker count. See DESIGN.md for the full argument.

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/trace"
)

// minMorselRows is the minimum morsel size; the actual morsel is the
// smallest multiple of the table's block size that reaches it, keeping
// morsel boundaries block-aligned and independent of the worker count.
const minMorselRows = 8192

// orderedMorselRows is the morsel size of a ranged scan, cut at fixed
// positions from the range's start so the fold order depends on the range
// alone. Rows of an order are scattered over the table: there are no blocks
// to align to, and a smaller morsel spreads a chunk-sized range over the
// workers. An ordered morsel is one run (the array type fails to compile
// if it ever outgrows the run cap).
const orderedMorselRows = 1024

var _ [maxRunRows - orderedMorselRows]struct{}

// injectMorsel fires once per claimed morsel inside the worker's
// containment scope, so an injected panic exercises the same recovery
// path a genuine kernel bug would.
var injectMorsel = fault.NewPoint("exec.morsel", "morsel worker, per claimed morsel")

// workersCtxKey carries a per-request worker-count override in a context.
type workersCtxKey struct{}

// ContextWithWorkers returns ctx carrying a per-query worker-count
// override, consulted first by ResolveWorkers. The server uses it to cap
// per-query parallelism under admission control without widening engine
// signatures.
func ContextWithWorkers(ctx context.Context, n int) context.Context {
	return context.WithValue(ctx, workersCtxKey{}, n)
}

// ResolveWorkers resolves the effective worker count: a context override
// wins, then a positive engine configuration, then runtime.GOMAXPROCS. The
// result is always at least 1.
func ResolveWorkers(ctx context.Context, cfg int) int {
	if n, _ := ctx.Value(workersCtxKey{}).(int); n > 0 {
		return n
	}
	if cfg > 0 {
		return cfg
	}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		return n
	}
	return 1
}

// morselRun is one fused parallel pipeline: per morsel it scans, filters,
// samples, probes the joins' build sides, and folds the rows into its
// terminal — an aggregate's partial groups, a projection's rows, or, for a
// join's build side, the kept rows' ids — without materializing
// intermediate rows, then merges the morsels in order.
type morselRun struct {
	ctx      context.Context
	scan     *plan.Scan
	joins    []*joinStage // bottom-up
	residual []expr.Expr  // Filter predicates above the scan, innermost first
	agg      *plan.Aggregate
	project  *plan.Project // the row terminal; with agg nil too, the run collects row ids
	limit    int           // the row terminal stops once its finished prefix holds limit rows; -1: never
	counters *Counters
	workers  int
	scanBinding

	view rowView       // the row the pipeline folds: the scan's output, then each build's
	kern morselKernels // compiled against the snapshot in run
	kept []uint64      // a uniform row stage's kept rows of the snapshot, a bit each, shared by the workers
	sp   *trace.Span   // the terminal's span, nil when tracing is off

	// The scan's run-wide numbering of the aggregate's groups (a global
	// aggregate's one group is id 0) and of the distinct sampler's strata,
	// which is groupIDs when the strata are the groups.
	groupIDs, strataIDs *groupDict
}

// newMorselRun lays out the left-deep chain below a terminal — Filter and
// Join nodes down to a scan, whose right-hand sides the joins build from.
func newMorselRun(ctx context.Context, below plan.Node, counters *Counters, workers int, sp *trace.Span) (*morselRun, error) {
	op := &morselRun{ctx: ctx, counters: counters, workers: workers, sp: sp, limit: -1}
	for n := below; op.scan == nil; {
		switch c := n.(type) {
		case *plan.Filter:
			op.residual = append(op.residual, c.Pred)
			n = c.Child
		case *plan.Join:
			op.joins = append(op.joins, &joinStage{node: c})
			n = c.Left
		case *plan.Scan:
			op.scan = c
		default:
			return nil, fmt.Errorf("exec: no scan path through %s", n.Explain())
		}
	}
	slices.Reverse(op.residual)
	slices.Reverse(op.joins)
	var err error
	op.scanBinding, err = bindScan(op.scan)
	return op, err
}

// Aggregate-slot fast-path modes; slotGeneral falls back to accumulate.
const (
	slotGeneral = iota
	slotCountStar
	slotCountCol
	slotSumAvg
	slotPercentile
)

// morselKernels holds the best-effort compiled form of the fused
// pipeline's expressions. Filters without a kernel, group parts without a
// typed column and slotGeneral slots fall back to the tree-walking
// evaluator per expression; the compiled and interpreted forms are
// bit-identical, so mixing them is safe.
type morselKernels struct {
	comp     *compiler   // sizes each worker's scratch
	scanView *rowView    // the table's own schema, which the scan filter is bound to
	filter   rowFilter   // scan filter
	residual []rowFilter // per residual predicate, bound to the pipeline's row
	group    []groupPart // typed access path per group expr
	slotMode []int
	slotArg  []valKernel
}

// compileKernels compiles what it can of the pipeline against the
// snapshots in op.view.
func (op *morselRun) compileKernels() morselKernels {
	c := &compiler{v: &rowView{tables: op.view.tables}}
	k := morselKernels{comp: c, scanView: c.v, residual: make([]rowFilter, len(op.residual))}
	if op.scan.Filter != nil {
		k.filter = c.filter(op.scan.Filter)
	}
	c.v = &op.view
	for i, pred := range op.residual {
		k.residual[i] = c.filter(pred)
	}
	for _, js := range op.joins {
		js.compile(c)
	}
	if op.agg == nil {
		return k
	}
	k.group = make([]groupPart, len(op.agg.GroupBy))
	k.slotMode, k.slotArg = make([]int, len(op.agg.Aggs)), make([]valKernel, len(op.agg.Aggs))
	for i, ge := range op.agg.GroupBy {
		if ref, ok := ge.(*expr.ColRef); ok {
			k.group[i] = typedPart(c.column(ref.Index))
		}
	}
	for j, spec := range op.agg.Aggs {
		mode := slotGeneral
		switch spec.Func {
		case sqlparse.AggCount:
			if spec.Star {
				mode = slotCountStar
			} else if !spec.Distinct && spec.Arg != nil {
				mode = slotCountCol
			}
		case sqlparse.AggSum, sqlparse.AggAvg:
			mode = slotSumAvg
		case sqlparse.AggPercentile:
			mode = slotPercentile
		}
		if mode != slotGeneral && mode != slotCountStar {
			if k.slotArg[j] = c.num(spec.Arg, 0); k.slotArg[j] == nil {
				mode = slotGeneral
			}
		}
		k.slotMode[j] = mode
	}
	return k
}

// emitted is one row of the row terminal: the scan's table row it came
// from, its weight and, under a projection, its values.
type emitted struct {
	row  int32
	w    float64
	vals []storage.Value
}

// prepare snapshots the scanned table — concurrent appends then neither
// tear the read prefix nor move the row count mid-scan, and every worker
// sees the same version — runs each join's build, and compiles the
// pipeline against the snapshots.
func (op *morselRun) prepare() (*storage.Table, error) {
	table := op.scan.Table.Snapshot()
	op.counters.Passes++
	op.view = rowView{tables: []*storage.Table{table}}
	for _, i := range op.outIdx {
		op.view.cols = append(op.view.cols, colRef{col: i})
	}
	for j, js := range op.joins {
		if err := op.build(js); err != nil {
			return nil, err
		}
		op.view.tables = append(op.view.tables, js.table)
		for _, i := range js.outIdx {
			op.view.cols = append(op.view.cols, colRef{side: j + 1, col: i})
		}
	}
	if op.sp != nil && len(op.joins) > 0 {
		var joins, built []string
		for _, js := range op.joins {
			joins, built = append(joins, js.node.Explain()), append(built, strconv.Itoa(len(js.index.rows)))
		}
		op.sp.SetAttr("join", strings.Join(joins, "; "))
		op.sp.SetAttr("build_rows", strings.Join(built, ", "))
	}
	op.kern = op.compileKernels()
	if op.agg != nil {
		op.groupIDs = newGroupDict(len(op.agg.GroupBy))
		if len(op.agg.GroupBy) == 0 {
			op.groupIDs.id("", nil)
		}
	}
	if s := op.scan.Sample; s != nil && s.Kind == sample.KindDistinct {
		op.strataIDs = op.groupIDs
		if !op.strataAreGroups() {
			op.strataIDs = newGroupDict(len(op.keyIdx))
		}
	}
	return table, nil
}

// strataAreGroups reports whether the distinct sampler's key columns are
// the GROUP BY's, in order, on a scan with no join: a row's stratum is
// then its group.
func (op *morselRun) strataAreGroups() bool {
	if op.agg == nil || len(op.joins) > 0 || len(op.agg.GroupBy) == 0 || len(op.agg.GroupBy) != len(op.keyIdx) {
		return false
	}
	for i, g := range op.agg.GroupBy {
		if ref, ok := g.(*expr.ColRef); !ok || op.outIdx[ref.Index] != op.keyIdx[i] {
			return false
		}
	}
	return true
}

// run executes the pipeline — each join's build, then the scan's morsels —
// and returns the merged groups of the aggregate terminal or the kept rows
// of the row terminal, in scan order.
func (op *morselRun) run() (*scanGroups, []emitted, error) {
	table, err := op.prepare()
	if err != nil {
		return nil, nil, err
	}
	first, end, morselRows := op.morselGrid(table)
	nMorsels := (end - first + morselRows - 1) / morselRows
	workers := max(min(op.workers, nMorsels), 1)

	wks := make([]*morselWorker, 0, workers)
	// Every return below is before a worker starts or after all have
	// finished, so their vector memory can go back to the pool.
	defer func() {
		for _, wk := range wks {
			wk.sc.release()
		}
	}()
	for len(wks) < workers {
		wk, err := op.newWorker(table)
		if err != nil {
			return nil, nil, err
		}
		wks = append(wks, wk)
	}
	if u := wks[0].uniform; u != nil {
		// Once per scan: the workers read one bitmap, and a first query at
		// its (seed, rate) decides the rows on all of the query's workers.
		if op.kept, err = u.Kept(op.ctx, table.NumRows(), op.workers); err != nil {
			return nil, nil, err
		}
	}

	// Trace setup only observes the already-decided morsel geometry: worker
	// spans are created in index order before the workers launch, so the
	// profile is deterministic, and nothing feeds back into sizing,
	// claiming, or merge order.
	if op.sp != nil {
		op.sp.SetAttr("scan", op.scan.Explain())
		op.sp.SetAttrInt("workers", int64(workers))
		op.sp.SetAttrInt("morsels", int64(nMorsels))
		op.sp.SetAttrInt("morsel_rows", int64(morselRows))
		if op.scan.Sample != nil {
			op.sp.SetAttr("sample", op.scan.Sample.String())
		}
	}

	partials := make([]morselPart, nMorsels)
	runCtx, cancel := context.WithCancel(op.ctx)
	defer cancel()
	var (
		next     int64
		wg       sync.WaitGroup
		once     sync.Once
		firstErr error
		// Under a LIMIT the workers stop claiming once the morsels
		// finished from the first on hold enough rows.
		stop               atomic.Bool
		mu                 sync.Mutex
		done               = make([]bool, nMorsels)
		prefix, prefixRows int
	)
	stop.Store(op.limit == 0)
	finished := func(m int) {
		if op.limit < 0 {
			return
		}
		mu.Lock()
		for done[m] = true; prefix < nMorsels && done[prefix]; prefix++ {
			prefixRows += len(partials[prefix].rows)
		}
		if prefixRows >= op.limit {
			stop.Store(true)
		}
		mu.Unlock()
	}
	fail := func(err error) {
		// First failure wins and cancels the siblings.
		once.Do(func() { firstErr = err; cancel() })
	}
	for w, wk := range wks {
		var wsp *trace.Span
		if op.sp != nil {
			wsp = op.sp.NewChild(fmt.Sprintf("worker %d", w))
		}
		wg.Add(1)
		go func(wk *morselWorker, wsp *trace.Span) {
			defer wg.Done()
			// Contain worker panics: convert to a typed error that fails
			// only this query and cancels the sibling workers, instead
			// of killing the process.
			defer func() {
				if r := recover(); r != nil {
					fail(fault.AsError(r))
				}
			}()
			busy, morsels, wallStart := time.Duration(0), int64(0), time.Now()
			for !stop.Load() {
				m := int(atomic.AddInt64(&next, 1)) - 1
				if m >= nMorsels {
					break
				}
				if err := injectMorsel.Inject(); err != nil {
					fail(err)
					break
				}
				lo := first + m*morselRows
				hi := min(lo+morselRows, end)
				t0 := time.Now()
				if err := wk.processMorsel(runCtx, lo, hi, &partials[m]); err != nil {
					fail(err)
					break
				}
				busy += time.Since(t0)
				morsels++
				finished(m)
			}
			if wsp != nil {
				// Stall = wall time minus morsel-processing time: claim
				// contention plus tail idling after the last morsel.
				wsp.AddTime(busy)
				wsp.SetAttrInt("morsels", morsels)
				wsp.SetAttr("stall", max(time.Since(wallStart)-busy, 0).Round(time.Microsecond).String())
				wsp.SetRowsIn(wk.counters.RowsScanned)
				wsp.AddRows(wk.counters.RowsEmitted)
			}
		}(wk, wsp)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	mergeStart := time.Now()
	// Ordered reduction: the morsels in ascending order — under a LIMIT,
	// up to the first that completes it, whatever the workers ran beyond.
	// The distinct sampler's undecided rows are settled first, morsel by
	// morsel in scan order: the workers are done, so the first one's
	// scratch and kernels serve. Each morsel contributes to a group at most
	// once, so per group the float operation sequence is fixed by morsel
	// index alone.
	var seen []int32 // per stratum, the rows the morsels so far passed, up to the pass-through
	if wks[0].distinct != nil {
		seen = make([]int32, len(op.strataIDs.keys))
	}
	var groups *scanGroups
	if op.agg != nil {
		groups = newScanGroups(op.groupIDs, op.kern.slotMode)
	}
	var rows []emitted
	if op.agg == nil {
		n := 0
		for _, p := range partials {
			n += len(p.rows)
		}
		rows = make([]emitted, 0, n)
	}
	var scanned, deferred int64
	for m := range partials {
		p := &partials[m]
		if seen != nil {
			if err := op.ctx.Err(); err != nil {
				return nil, nil, err
			}
			if err := wks[0].foldDeferred(p, seen); err != nil {
				return nil, nil, err
			}
			deferred += int64(len(p.deferRows))
		}
		op.counters.Add(p.counters)
		scanned += p.counters.RowsScanned
		rows = append(rows, p.rows...)
		if groups != nil {
			groups.fold(p)
		}
		if op.limit >= 0 && len(rows) >= op.limit {
			break
		}
	}
	// The scan is fused into this span, so its input is the rows examined.
	op.sp.SetRowsIn(scanned)
	if op.sp != nil {
		ms := op.sp.NewChild("merge")
		ms.AddTime(time.Since(mergeStart))
		ms.SetAttrInt("partials", int64(nMorsels))
		met := 0
		if groups != nil {
			met = groups.count
		}
		ms.SetAttrInt("groups", int64(met))
		ms.SetAttrInt("deferred_rows", deferred)
	}
	return groups, rows, nil
}

// morselGrid returns what the morsels tile — table rows [first, end), or
// those positions of the scan's row order — and the morsel size.
func (op *morselRun) morselGrid(table *storage.Table) (first, end, morselRows int) {
	if r := op.scan.Range; r != nil {
		return r.Lo, r.Hi, orderedMorselRows
	}
	morselRows = table.BlockSize()
	for morselRows < minMorselRows {
		morselRows += table.BlockSize()
	}
	return 0, table.NumRows(), morselRows
}

// morselWorker holds one worker's private sampler, scratch and counters.
// Samplers are deterministic functions of (seed, row/block index, key), so
// every worker's instance makes identical decisions; each worker gets its
// own only to keep the hot loop free of sharing. The distinct sampler also
// counts rows per stratum: a worker counts within its morsel, decides the
// rows that settles and sets the others aside for the ordered merge.
type morselWorker struct {
	op    *morselRun
	table *storage.Table
	samplerStages
	weights  storage.Column // the stored sample's weight column, or nil
	groups   *groupResolver // run-wide group ids; nil for global aggregates and the row terminal
	counters Counters       // for the worker's span
	out      []emitted      // the row terminal's rows of the current morsel
	levels   []*probeLevel  // per join, the probe's vectors

	acc    *morselPart // the partial the aggregate folds into
	direct bool        // acc's places are the groups' run-wide ids
	local  []int32     // otherwise, per run-wide group id, its place in acc's list plus one; 0: not in it
	most   int         // the most groups a partial of the worker's has held

	// The distinct sampler's: strata gives the rows' run-wide stratum ids,
	// and is groups when the strata are the groups.
	strata     *groupResolver
	ranks      []int32 // per stratum id, its rows met in the morsel so far, up to the pass-through
	rows, sids []int32 // the morsel's undecided rows and their stratum ids

	sc   *scratch // vector memory, the worker's for the whole scan
	ends []int32  // where each segment of the run ends
}

func (op *morselRun) newWorker(table *storage.Table) (*morselWorker, error) {
	st, err := stageSampler(op.scan, op.keyIdx, table)
	if err != nil {
		return nil, err
	}
	wk := &morselWorker{op: op, table: table, samplerStages: st}
	if op.weightIdx >= 0 {
		wk.weights = table.Column(op.weightIdx)
	}
	// A run is a block, or a morsel of the order, capped at maxRunRows; a
	// table smaller than that needs no more.
	runCap := min(maxRunRows, table.BlockSize(), max(table.NumRows(), 1))
	if r := op.scan.Range; r != nil {
		runCap = min(maxRunRows, max(r.Hi-r.Lo, 1))
	}
	wk.sc = newScratch(op.kern.comp, runCap)
	wk.ends = make([]int32, 0, maxRunRows/minRowsPerGroup) // as many segments as a run can have
	if op.agg != nil && len(op.agg.GroupBy) > 0 {
		wk.groups = newGroupResolver(op.agg.GroupBy, op.kern.group, mappedRow{v: &op.view}, wk.sc, op.groupIDs.id)
		wk.direct = wk.groups.dense != nil && len(wk.groups.dense) <= maxDirectGroups
	}
	if wk.distinct != nil {
		wk.strata = wk.groups
		if op.strataIDs != op.groupIDs {
			keys, parts := make([]expr.Expr, len(op.keyIdx)), make([]groupPart, len(op.keyIdx))
			for i, idx := range op.keyIdx {
				keys[i], parts[i] = &expr.ColRef{Index: idx}, typedPart(table.Column(idx), 0)
			}
			wk.strata = newGroupResolver(keys, parts, mappedRow{v: op.kern.scanView}, wk.sc, op.strataIDs.id)
		}
	}
	for j, js := range op.joins {
		wk.levels = append(wk.levels, newProbeLevel(op, js, j, runCap, wk.sc))
	}
	return wk, nil
}

// morselPart is what a morsel hands the ordered merge: the groups it
// folded, by run-wide id, and their state, or its kept rows; its counters;
// and, under the distinct sampler, the rows it could not decide —
// deferRows[i], of the stratum with run-wide id sids[i], is among the first
// keep rows of its stratum in the morsel, so whether it passes depends on
// the morsels before.
type morselPart struct {
	ids []int32 // run-wide group id by place in the stripes
	groupStripes
	rows            []emitted
	counters        Counters
	deferRows, sids []int32
}

// globalIDs is the group list of a global aggregate's partial: its one group.
var globalIDs = []int32{0}

// maxDirectGroups bounds the code space of a dictionary GROUP BY whose
// partials place a group at its run-wide id: a morsel then holds stripes
// for every group the scan has met, which costs little at this size, and
// saves a per-row translation to places in the partial's own list.
const maxDirectGroups = 256

// start makes p, a new partial, the one the aggregate folds into, with
// room for an eighth more groups than the worker's largest partial so far
// has, but for no more than the scan has met.
func (wk *morselWorker) start(p *morselPart) {
	if wk.groups == nil {
		p.groupStripes = newGroupStripes(wk.op.kern.slotMode, 1)
		p.ids = globalIDs
		p.add()
	} else {
		size := wk.op.groupIDs.size()
		if wk.most > 0 {
			size = min(size, wk.most+wk.most/8)
		}
		p.groupStripes = newGroupStripes(wk.op.kern.slotMode, size)
		p.ids = make([]int32, 0, size)
	}
	wk.enter(p)
}

// enter makes p the partial the aggregate folds into.
func (wk *morselWorker) enter(p *morselPart) {
	if wk.groups != nil && !wk.direct {
		if wk.acc != nil {
			for _, g := range wk.acc.ids {
				wk.local[g] = 0
			}
		}
		for l, g := range p.ids {
			wk.local = zeroExtend(wk.local, int(g)+1)
			wk.local[g] = int32(l) + 1
		}
	}
	wk.acc = p
}

// zeroExtend extends ids, which never shrinks, with zeros to at least n
// entries.
func zeroExtend(ids []int32, n int) []int32 {
	if n <= len(ids) {
		return ids
	}
	return slices.Grow(ids, n-len(ids))[:n]
}

// toLocal turns the run-wide group ids gids into places in the list of the
// partial the aggregate folds into, adding each group it has not met.
func (wk *morselWorker) toLocal(gids []int32) {
	acc := wk.acc
	for i, g := range gids {
		if int(g) >= len(wk.local) {
			wk.local = zeroExtend(wk.local, int(g)+1)
		}
		l := wk.local[g]
		if l == 0 {
			acc.ids = append(acc.ids, g)
			acc.add()
			l = int32(len(acc.ids))
			wk.local[g] = l
		}
		gids[i] = l - 1
	}
}

// cover extends a partial whose places are run-wide ids to the ids below n.
func (p *morselPart) cover(n int) {
	for len(p.ids) < n {
		p.ids = append(p.ids, int32(len(p.ids)))
		p.add()
	}
}

// finish wraps up the current morsel into p: the worker's buffers are the
// next one's.
func (wk *morselWorker) finish(p *morselPart, c Counters) {
	p.rows, p.counters = wk.out, c
	wk.out = nil
	wk.counters.Add(c)
	wk.most = max(wk.most, len(p.ids))
	if wk.distinct != nil {
		p.deferRows = append(p.deferRows, wk.rows...)
		p.sids = append(p.sids, wk.sids...)
	}
}

// processMorsel runs the fused pipeline over rows [lo, hi) — morsels are
// block-aligned, so each block belongs to exactly one morsel and the
// block counters stay exact — or, for a ranged scan, over the rows at
// positions [lo, hi) of its order, a run at a time, into the partial p.
func (wk *morselWorker) processMorsel(ctx context.Context, lo, hi int, p *morselPart) error {
	op := wk.op
	runCap := len(wk.sc.ones)
	// Tally in locals and publish once per morsel: the workers' structs
	// sit side by side on the heap, and a per-row store into one would
	// keep invalidating the cache line its neighbour reads its fields from.
	var counters Counters
	if op.agg != nil {
		wk.start(p)
	}
	if wk.distinct != nil {
		// Only a stratum with an undecided row has counted one.
		for _, s := range wk.sids {
			wk.ranks[s] = 0
		}
		wk.rows, wk.sids = wk.rows[:0], wk.sids[:0]
	}
	if r := op.scan.Range; r != nil {
		// One cancellation checkpoint per ordered morsel.
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := wk.foldRun(wk.sc.orderRun(r.Order[lo:hi]), 1, &counters); err != nil {
			return err
		}
		wk.finish(p, counters)
		return nil
	}
	blockSize := wk.table.BlockSize()
	// Under a uniform row stage a run is the rows it keeps, gathered across
	// blocks — every kept block weighs the same — and folded once full.
	var kept []int32
	blockWeight := 1.0
	for row := lo; row < hi; {
		// One cancellation checkpoint per block.
		if err := ctx.Err(); err != nil {
			return err
		}
		block := row / blockSize
		blockEnd := min((block+1)*blockSize, hi)
		if wk.blockSamp != nil {
			d := wk.blockSamp.DecideBlock(block)
			if !d.Keep {
				counters.BlocksSkipped++
				row = blockEnd
				continue
			}
			counters.BlocksScanned++
			blockWeight = d.Weight
		}
		if wk.uniform == nil {
			for ; row < blockEnd; row += runCap {
				sel := wk.sc.blockRun(row, min(row+runCap, blockEnd))
				if err := wk.foldRun(sel, blockWeight, &counters); err != nil {
					return err
				}
			}
		} else {
			for row < blockEnd {
				if kept, row = wk.sc.keptRun(len(kept), op.kept, row, blockEnd); len(kept) == runCap {
					if err := wk.foldRun(kept, blockWeight, &counters); err != nil {
						return err
					}
					kept = kept[:0]
				}
			}
		}
		row = blockEnd
	}
	if len(kept) > 0 {
		if err := wk.foldRun(kept, blockWeight, &counters); err != nil {
			return err
		}
	}
	wk.finish(p, counters)
	return nil
}

// foldRun filters, samples and accumulates one run — sel, the scratch's
// current run, kept at blockWeight — into the worker's partial, tallying
// into c. The stages run in the order a row would meet them — scan filter,
// row sampler, then foldKept's: weight column, join probes, residual
// predicates, then the terminal — each over the whole selection, and every
// accumulator still sees its rows in selection order. A uniform row sampler
// is the exception: it built the run (keptRun), so only the rows it keeps
// are read at all, and here it adds just their weight.
func (wk *morselWorker) foldRun(sel []int32, blockWeight float64, c *Counters) error {
	c.RowsScanned += int64(len(sel))
	if wk.op.scan.Filter != nil {
		var err error
		if sel, err = wk.op.kern.filter.narrow(wk.sc, mappedRow{v: wk.op.kern.scanView}, sel, sel); err != nil {
			return err
		}
	}
	// The rows' weights: w each or, after a keyed sampler, ws[i] for sel[i].
	w, ws := blockWeight, []float64(nil)
	var gids []int32
	switch {
	case wk.uniform != nil:
		w *= 1 / wk.uniform.Rate()
	case wk.distinct != nil:
		// Counting from the morsel's first row, a row past the pass-through
		// is past it in the whole scan too: the coin decides it here. One
		// within it (weight 1: at rate 1 that is every row, which loses
		// nothing) waits for the counts of the morsels before.
		sids, marks := wk.sc.gids[:len(sel)], wk.sc.ws
		if err := wk.strata.resolve(sel, sids); err != nil {
			return err
		}
		wk.ranks = zeroExtend(wk.ranks, int(wk.strata.ids))
		wk.distinct.KeepRows(sel, sids, wk.ranks, marks)
		k := 0
		for i, r := range sel {
			switch marks[i] {
			case 0:
			case 1:
				wk.rows, wk.sids = append(wk.rows, r), append(wk.sids, sids[i])
			default:
				sel[k], sids[k] = r, sids[i]
				k++
			}
		}
		sel, w = sel[:k], w*(1/wk.distinct.Rate())
		if wk.strata == wk.groups {
			gids = sids[:k] // the strata are the groups
		}
	case wk.sampler != nil:
		ws = wk.sc.ws
		k := 0
		for _, r := range sel {
			key := ""
			if wk.keyer != nil {
				key = wk.keyer.Key(int(r))
			}
			if d := wk.sampler.Decide(int(r), key); d.Keep {
				sel[k], ws[k] = r, blockWeight*d.Weight
				k++
			}
		}
		sel, ws = sel[:k], ws[:k]
	}
	return wk.foldKept(sel, w, ws, gids, c)
}

// foldDeferred settles the rows morsel p set aside and folds the kept ones
// into its partial, after the rows the morsel folded itself. seen counts,
// per stratum, the rows the morsels before p passed (up to the
// pass-through), and is brought up to date: a row is then decided exactly
// as a sampler fed the scan row by row decides it, whatever the worker count.
func (wk *morselWorker) foldDeferred(p *morselPart, seen []int32) error {
	if wk.op.agg == nil {
		wk.out = p.rows // the settled rows join the morsel's, then take their place in scan order
	} else {
		wk.enter(p)
		if wk.direct {
			p.cover(wk.op.groupIDs.size()) // the strata ids come from every worker
		}
	}
	for lo, runCap := 0, len(wk.sc.ones); lo < len(p.deferRows); lo += runCap {
		hi := min(lo+runCap, len(p.deferRows))
		sel, sids, ws := wk.sc.orderRun(p.deferRows[lo:hi]), p.sids[lo:hi], wk.sc.ws
		wk.distinct.KeepRows(sel, sids, seen, ws)
		k := 0
		for i, r := range sel {
			if ws[i] != 0 {
				sel[k], sids[k], ws[k] = r, sids[i], ws[i]
				k++
			}
		}
		var gids []int32
		if wk.strata == wk.groups {
			gids = sids[:k]
		}
		if err := wk.foldKept(sel[:k], 1, ws[:k], gids, &p.counters); err != nil {
			return err
		}
	}
	if wk.op.agg == nil {
		p.rows, wk.out = wk.out, nil
		if len(p.deferRows) > 0 {
			slices.SortStableFunc(p.rows, func(a, b emitted) int { return cmp.Compare(a.row, b.row) })
		}
	}
	return nil
}

// foldKept folds the rows the samplers kept — sel, each weighing w or,
// with ws set, ws[i], and, with gids set, of the run-wide group gids[i] —
// into the worker's partial, tallying into c: through the joins, when the
// pipeline has any, and then fold.
func (wk *morselWorker) foldKept(sel []int32, w float64, ws []float64, gids []int32, c *Counters) error {
	sameWeight := ws == nil
	switch {
	case !sameWeight:
	case w == 1 && wk.weights == nil:
		ws = wk.sc.ones[:len(sel)]
	default:
		ws = fill(wk.sc.ws[:len(sel)], w)
	}
	if wk.weights != nil {
		sameWeight = false
		for i, r := range sel {
			if wv := wk.weights.Value(int(r)); !wv.IsNull() {
				ws[i] *= wv.AsFloat()
			}
		}
	}
	c.RowsEmitted += int64(len(sel))
	if len(wk.levels) > 0 {
		return wk.probe(0, sel, ws)
	}
	return wk.fold(sel, w, ws, gids, sameWeight)
}

// narrow keeps the rows of sel that f holds, at the positions row reads;
// their weights (and group ids) follow them.
func (wk *morselWorker) narrow(f rowFilter, row mappedRow, sel []int32, ws []float64, gids []int32) ([]int32, []float64, []int32, error) {
	kept, err := f.narrow(wk.sc, row, sel, wk.sc.kept)
	if err != nil {
		return nil, nil, nil, err
	}
	// kept is a subsequence of sel.
	k := 0
	for i, r := range sel {
		if k < len(kept) && kept[k] == r {
			sel[k], ws[k] = r, ws[i]
			if gids != nil {
				gids[k] = gids[i]
			}
			k++
		}
	}
	if gids != nil {
		gids = gids[:k]
	}
	return sel[:k], ws[:k], gids, nil
}

// fold applies the residual predicates to the rows sel — positions of the
// joined row after a join — and hands the survivors to the terminal: the
// row terminal emits them, the aggregate accumulates them into the
// worker's partial.
func (wk *morselWorker) fold(sel []int32, w float64, ws []float64, gids []int32, sameWeight bool) error {
	op := wk.op
	kern := &op.kern
	row := mappedRow{v: &op.view, at: wk.sc.at}
	for _, f := range kern.residual {
		var err error
		if sel, ws, gids, err = wk.narrow(f, row, sel, ws, gids); err != nil {
			return err
		}
	}
	if len(sel) == 0 {
		return nil
	}
	if op.agg == nil {
		return wk.emit(sel, ws)
	}
	weighted := w != 1
	for i := 0; !sameWeight && !weighted && i < len(ws); i++ {
		weighted = ws[i] != 1
	}

	// Group: a place in the partial's group list per selected row. A global
	// aggregate's run is one segment of rows, its one group's; with few
	// groups the run is regrouped into a segment per group; either way a
	// slot folds a segment in one call. With many groups the rows stay put
	// and fold one at a time.
	acc, ends := wk.acc, wk.ends[:0]
	if wk.groups == nil {
		ends = append(ends, int32(len(sel)))
	} else {
		if gids == nil {
			gids = wk.sc.gids[:len(sel)]
			if err := wk.groups.resolve(sel, gids); err != nil {
				return err
			}
		}
		if wk.direct {
			acc.cover(int(wk.groups.ids))
		} else {
			wk.toLocal(gids)
		}
		if len(acc.ids)*minRowsPerGroup <= len(sel) {
			sel, ws, ends = wk.regroup(sel, gids, ws, sameWeight)
		}
	}
	n, flagged := acc.n, acc.weighted
	lo := int32(0)
	for g, hi := range ends {
		n[g] += float64(hi - lo)
		if weighted && hi > lo && !flagged[g] {
			flagged[g] = slices.ContainsFunc(ws[lo:hi], func(w float64) bool { return w != 1 })
		}
		lo = hi
	}
	if len(ends) == 0 {
		for i, g := range gids {
			n[g]++
			if weighted && ws[i] != 1 {
				flagged[g] = true
			}
		}
	}

	for j, spec := range op.agg.Aggs {
		mode, ht, whole := kern.slotMode[j], acc.slots[j].ht, acc.slots[j].whole
		var vals []float64
		var nulls []bool
		switch mode {
		case slotGeneral:
			mr := row
			g := 0
			for i, r := range sel {
				if len(ends) == 0 {
					g = int(gids[i])
				} else {
					for int32(i) == ends[g] {
						g++
					}
				}
				mr.idx = int(r)
				if err := accumulate(&whole[g], spec, mr, ws[i]); err != nil {
					return err
				}
			}
			continue
		case slotCountStar:
			vals = wk.sc.ones[:len(sel)]
		case slotCountCol:
			_, nulls = kern.slotArg[j](wk.sc, sel)
			vals = wk.sc.ones[:len(sel)]
		default:
			vals, nulls = kern.slotArg[j](wk.sc, sel)
		}
		lo := int32(0)
		for g, hi := range ends {
			if hi == lo {
				continue
			}
			segVals, segWs := vals[lo:hi], ws[lo:hi]
			if nulls != nil {
				// A NULL argument's row takes no part in the slot.
				k := 0
				for i, null := range nulls[lo:hi] {
					if !null {
						wk.sc.vals[k], wk.sc.valWs[k] = segVals[i], segWs[i]
						k++
					}
				}
				segVals, segWs = wk.sc.vals[:k], wk.sc.valWs[:k]
			}
			if mode == slotPercentile {
				st := &whole[g]
				st.nonNull += float64(len(segVals))
				st.pctVals = append(st.pctVals, segVals...)
				st.pctWeights = append(st.pctWeights, segWs...)
			} else {
				ht[g].AddRun(segVals, segWs)
			}
			lo = hi
		}
		if len(ends) > 0 {
			continue
		}
		for i, g := range gids {
			switch {
			case nulls != nil && nulls[i]:
			case mode == slotPercentile:
				st := &whole[g]
				st.nonNull++
				st.pctVals = append(st.pctVals, vals[i])
				st.pctWeights = append(st.pctWeights, ws[i])
			default:
				ht[g].Add(vals[i], ws[i])
			}
		}
	}
	return nil
}

// emit is the row terminal: each row of sel, with its weight and, under a
// projection, its values, joins the morsel's rows.
func (wk *morselWorker) emit(sel []int32, ws []float64) error {
	var exprs []expr.Expr
	if p := wk.op.project; p != nil {
		exprs = p.Exprs
	}
	vals := make([]storage.Value, len(sel)*len(exprs))
	row := mappedRow{v: &wk.op.view, at: wk.sc.at}
	for i, pos := range sel {
		e := emitted{row: pos, w: ws[i], vals: vals[:len(exprs):len(exprs)]}
		if row.at != nil {
			e.row = row.at[0][pos]
		}
		vals, row.idx = vals[len(exprs):], int(pos)
		for k, x := range exprs {
			v, err := x.Eval(row)
			if err != nil {
				return err
			}
			e.vals[k] = v
		}
		wk.out = append(wk.out, e)
	}
	return nil
}

// minRowsPerGroup is how many rows per group a run must average before it
// is regrouped: below it the segments are too short to repay the sort.
const minRowsPerGroup = 16

// regroup sorts the run by group id, stably (a counting sort), so that a
// group's rows stay in selection order: it returns the selection and its
// weights group by group, with where each group's rows end.
func (wk *morselWorker) regroup(sel, gids []int32, ws []float64, sameWeight bool) ([]int32, []float64, []int32) {
	ends := wk.ends[:len(wk.acc.ids)]
	clear(ends)
	for _, g := range gids {
		ends[g]++
	}
	at := int32(0)
	for g, n := range ends {
		ends[g] = at // where group g's rows go next
		at += n
	}
	bySel, byWs := wk.sc.kept[:len(sel)], ws
	if !sameWeight {
		byWs = wk.sc.orderWs[:len(sel)]
	}
	for i, g := range gids {
		bySel[ends[g]] = sel[i]
		if !sameWeight {
			byWs[ends[g]] = ws[i]
		}
		ends[g]++
	}
	return bySel, byWs, ends
}
