package exec

// Morsel-driven parallel execution.
//
// RunParallelContext splits an eligible plan — a hash aggregate over a
// (filtered, sampled) base-table scan — into fixed, block-aligned row
// ranges ("morsels"), processes each morsel on one of a pool of workers
// with a fused scan+filter+sample+partial-aggregate pipeline, and merges
// the per-morsel partial aggregation states in ascending morsel order.
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
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/plan"
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

// RunParallel executes a logical plan with the given worker count.
func RunParallel(root plan.Node, workers int) (*Result, error) {
	return RunParallelContext(context.Background(), root, workers)
}

// RunParallelContext executes a logical plan under ctx with the given
// worker count (≤ 0 resolves via ResolveWorkers): an aggregate over a
// Filter*→Scan chain computes its partial on the morsel-parallel path,
// whatever the scan's sampler, every other shape (joins below the
// aggregate, no aggregate at all) on the serial operators; results are
// identical either way up to float summation order.
func RunParallelContext(ctx context.Context, root plan.Node, workers int) (*Result, error) {
	if workers <= 0 {
		workers = ResolveWorkers(ctx, 0)
	}
	return run(ctx, root, aggSource{workers: workers})
}

// morselEligible reports whether the aggregate sits on a Filter*→Scan
// chain it can fuse, returning the scan and the residual predicates in
// application order (innermost first). Every sampler qualifies: the
// stateless ones decide a row from its index, and the distinct sampler's
// per-stratum counts are settled in the ordered merge (foldDeferred).
func morselEligible(a *plan.Aggregate) (*plan.Scan, []expr.Expr, bool) {
	var residual []expr.Expr
	n := a.Child
	for {
		switch c := n.(type) {
		case *plan.Filter:
			residual = append(residual, c.Pred)
			n = c.Child
		case *plan.Scan:
			for i, j := 0, len(residual)-1; i < j; i, j = i+1, j-1 {
				residual[i], residual[j] = residual[j], residual[i]
			}
			return c, residual, true
		default:
			return nil, nil, false
		}
	}
}

// morselRun is one fused parallel scan-aggregate: per morsel it scans,
// filters, samples, and partially aggregates without materializing
// intermediate batches, then merges the partials deterministically.
type morselRun struct {
	ctx      context.Context
	node     *plan.Aggregate
	scan     *plan.Scan
	residual []expr.Expr
	counters *Counters
	workers  int
	scanBinding

	kern morselKernels // compiled against the snapshot in computeGroups
	sp   *trace.Span   // the aggregate's span, nil when tracing is off
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
	filter   rowFilter   // scan filter, bound to the table schema
	residual []rowFilter // per residual predicate, bound to scan output
	group    []groupPart // typed access path per group expr
	slotMode []int
	slotArg  []valKernel
}

// compileKernels compiles what it can of the pipeline against a concrete
// table snapshot.
func (op *morselRun) compileKernels(t *storage.Table) morselKernels {
	c := &compiler{t: t}
	k := morselKernels{
		comp:     c,
		residual: make([]rowFilter, len(op.residual)),
		group:    make([]groupPart, len(op.node.GroupBy)),
		slotMode: make([]int, len(op.node.Aggs)),
		slotArg:  make([]valKernel, len(op.node.Aggs)),
	}
	if op.scan.Filter != nil {
		k.filter = c.filter(op.scan.Filter)
	}
	c.m = op.outIdx
	for i, pred := range op.residual {
		k.residual[i] = c.filter(pred)
	}
	for i, ge := range op.node.GroupBy {
		if ref, ok := ge.(*expr.ColRef); ok {
			k.group[i] = typedPart(t.Column(op.outIdx[ref.Index]))
		}
	}
	for j, spec := range op.node.Aggs {
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

func newMorselRun(ctx context.Context, a *plan.Aggregate, s *plan.Scan, residual []expr.Expr, counters *Counters, workers int, sp *trace.Span) (*morselRun, error) {
	b, err := bindScan(s)
	if err != nil {
		return nil, err
	}
	return &morselRun{ctx: ctx, node: a, scan: s, residual: residual,
		counters: counters, workers: workers, scanBinding: b, sp: sp}, nil
}

// mappedRow adapts direct table access to the scan's output schema:
// column i of the scan output is column out[i] of the table (nil out: the
// table's own schema, which the scan filter is bound to). Residual
// predicates and aggregate expressions are bound to the scan output.
type mappedRow struct {
	t   *storage.Table
	idx int
	out []int
}

// ColumnValue implements expr.Row.
func (r mappedRow) ColumnValue(i int) storage.Value {
	return r.t.Column(colMap(r.out).col(i)).Value(r.idx)
}

// computeGroups runs the parallel scan-aggregate and returns the merged
// partial group states without finalizing them.
func (op *morselRun) computeGroups() (map[string]*groupState, error) {
	// Scan a snapshot: concurrent appends to the live table neither tear
	// the read prefix nor move the row count mid-scan, and every worker
	// sees the same version.
	table := op.scan.Table.Snapshot()
	op.counters.Passes++
	op.kern = op.compileKernels(table)

	first, end, morselRows := op.morselGrid(table)
	nMorsels := (end - first + morselRows - 1) / morselRows

	workers := op.workers
	if workers > nMorsels {
		workers = nMorsels
	}
	if workers < 1 {
		workers = 1
	}

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
			return nil, err
		}
		wks = append(wks, wk)
	}

	// Trace setup happens before the workers launch and only observes the
	// already-decided morsel geometry: worker spans are pre-created here in
	// index order so the profile is deterministic, and nothing below feeds
	// back into sizing, claiming, or merge order.
	var workerSpans []*trace.Span
	if op.sp != nil {
		op.sp.SetAttr("scan", op.scan.Explain())
		op.sp.SetAttrInt("workers", int64(workers))
		op.sp.SetAttrInt("morsels", int64(nMorsels))
		op.sp.SetAttrInt("morsel_rows", int64(morselRows))
		if op.scan.Sample != nil {
			op.sp.SetAttr("sample", op.scan.Sample.String())
		}
		workerSpans = make([]*trace.Span, workers)
		for w := range workerSpans {
			workerSpans[w] = op.sp.NewChild(fmt.Sprintf("worker %d", w))
		}
	}

	partials := make([]morselPart, nMorsels)
	if nMorsels > 0 {
		runCtx, cancel := context.WithCancel(op.ctx)
		defer cancel()
		var (
			next     int64
			wg       sync.WaitGroup
			once     sync.Once
			firstErr error
		)
		fail := func(err error) {
			// First failure wins and cancels the siblings.
			once.Do(func() { firstErr = err; cancel() })
		}
		for w, wk := range wks {
			var wsp *trace.Span
			if workerSpans != nil {
				wsp = workerSpans[w]
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
				var (
					busy      time.Duration
					morsels   int64
					wallStart time.Time
				)
				if wsp != nil {
					wallStart = time.Now()
				}
				for {
					m := int(atomic.AddInt64(&next, 1)) - 1
					if m >= nMorsels {
						break
					}
					if err := injectMorsel.Inject(); err != nil {
						fail(err)
						break
					}
					lo := first + m*morselRows
					hi := lo + morselRows
					if hi > end {
						hi = end
					}
					var part morselPart
					var err error
					if wsp != nil {
						t0 := time.Now()
						part, err = wk.processMorsel(runCtx, lo, hi)
						busy += time.Since(t0)
						morsels++
					} else {
						part, err = wk.processMorsel(runCtx, lo, hi)
					}
					if err != nil {
						fail(err)
						break
					}
					partials[m] = part
				}
				if wsp != nil {
					// Stall = wall time minus morsel-processing time: claim
					// contention plus tail idling after the last morsel.
					wsp.AddTime(busy)
					wsp.SetAttrInt("morsels", morsels)
					stall := time.Since(wallStart) - busy
					if stall < 0 {
						stall = 0
					}
					wsp.SetAttr("stall", stall.Round(time.Microsecond).String())
					wsp.SetRowsIn(wk.counters.RowsScanned)
					wsp.AddRows(wk.counters.RowsEmitted)
				}
			}(wk, wsp)
		}
		wg.Wait()
		if firstErr != nil {
			return nil, firstErr
		}
	}
	var mergeStart time.Time
	if op.sp != nil {
		mergeStart = time.Now()
	}
	// The distinct sampler's undecided rows, morsel by morsel in scan order:
	// the workers are done, so the first one's scratch and kernels serve.
	var deferred int64
	if wks[0].distinct != nil {
		seen := make(map[string]*int32)
		for m := range partials {
			if err := op.ctx.Err(); err != nil {
				return nil, err
			}
			if err := wks[0].foldDeferred(&partials[m], seen); err != nil {
				return nil, err
			}
			deferred += int64(len(partials[m].rows))
		}
	}
	var scanned int64
	for _, wk := range wks {
		op.counters.Add(wk.counters)
		scanned += wk.counters.RowsScanned
	}
	// The scan is fused into this span, so its input is the rows examined.
	op.sp.SetRowsIn(scanned)

	// Ordered reduction: fold partials in ascending morsel order. Each
	// morsel contributes to a group exactly once, so per group the float
	// operation sequence is fixed by morsel index alone — map iteration
	// order within a partial only interleaves independent groups.
	groups := make(map[string]*groupState)
	for _, part := range partials {
		for key, gs := range part.groups {
			if gs.n == 0 && len(op.node.GroupBy) > 0 {
				continue // a stratum the sampler counted and kept no row of
			}
			if dst, ok := groups[key]; ok {
				mergeGroupState(dst, gs)
			} else {
				groups[key] = gs
			}
		}
	}
	if op.sp != nil {
		ms := op.sp.NewChild("merge")
		ms.AddTime(time.Since(mergeStart))
		ms.SetAttrInt("partials", int64(nMorsels))
		ms.SetAttrInt("groups", int64(len(groups)))
		ms.SetAttrInt("deferred_rows", deferred)
	}
	return groups, nil
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
	groups   *groupResolver // nil for global aggregates
	counters Counters

	// The distinct sampler's: strata numbers a morsel's strata as groups
	// numbers its groups, and is groups when the sampler's key columns are
	// the GROUP BY's (strataOf is then nil); otherwise the strata live in
	// strataOf, not in the partial.
	strata     *groupResolver
	strataOf   map[string]*groupState
	ranks      []int32 // per stratum id, its rows met so far, up to the pass-through
	rows, sids []int32 // the morsel's undecided rows and their stratum ids

	sc   *scratch       // vector memory, the worker's for the whole scan
	ends []int32        // where each segment of the run ends
	one  [1]*groupState // a global aggregate's one segment
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
	if len(op.node.GroupBy) > 0 {
		wk.groups = newGroupResolver(op.node.GroupBy, op.kern.group, len(op.node.Aggs),
			mappedRow{t: table, out: op.outIdx})
	}
	if wk.distinct != nil {
		wk.strata = wk.groups
		same := len(op.node.GroupBy) == len(op.keyIdx)
		for i := 0; same && i < len(op.keyIdx); i++ {
			ref, ok := op.node.GroupBy[i].(*expr.ColRef)
			same = ok && op.outIdx[ref.Index] == op.keyIdx[i]
		}
		if !same {
			keys, parts := make([]expr.Expr, len(op.keyIdx)), make([]groupPart, len(op.keyIdx))
			for i, idx := range op.keyIdx {
				keys[i], parts[i] = &expr.ColRef{Index: idx}, typedPart(table.Column(idx))
			}
			wk.strata = newGroupResolver(keys, parts, 0, mappedRow{t: table})
			wk.strataOf = make(map[string]*groupState)
		}
	}
	return wk, nil
}

// morselPart is what a morsel hands the ordered merge: its partial group
// states and, under the distinct sampler, the rows it could not decide —
// rows[i], of stratum strata[sids[i]], is among the first keep rows of its
// stratum in the morsel, so whether it passes depends on the morsels before.
type morselPart struct {
	groups     map[string]*groupState
	rows, sids []int32
	strata     []*groupState // by stratum id; the key names the stratum across morsels
}

// part wraps up the current morsel: the worker's buffers are the next one's.
func (wk *morselWorker) part(groups map[string]*groupState) morselPart {
	p := morselPart{groups: groups}
	if wk.distinct != nil {
		p.rows = append(p.rows, wk.rows...)
		p.sids = append(p.sids, wk.sids...)
		p.strata = append(p.strata, wk.strata.list...)
	}
	return p
}

// processMorsel runs the fused pipeline over rows [lo, hi) — morsels are
// block-aligned, so each block belongs to exactly one morsel and the
// block counters stay exact — or, for a ranged scan, over the rows at
// positions [lo, hi) of its order, a run at a time, and returns the partial
// aggregation state.
func (wk *morselWorker) processMorsel(ctx context.Context, lo, hi int) (morselPart, error) {
	op := wk.op
	runCap := len(wk.sc.ones)
	// Tally in locals and publish once per morsel: the workers' structs
	// sit side by side on the heap, and a per-row store into one would
	// keep invalidating the cache line its neighbour reads its fields from.
	var counters Counters
	// Global aggregates have a single group; hoist it out of the row loop.
	var global *groupState
	var groups map[string]*groupState
	if wk.groups == nil {
		global = newGroupState("", nil, len(op.node.Aggs))
		groups = map[string]*groupState{"": global}
	} else {
		groups = make(map[string]*groupState, len(wk.groups.list))
		wk.groups.reset()
	}
	if wk.distinct != nil {
		wk.ranks, wk.rows, wk.sids = wk.ranks[:0], wk.rows[:0], wk.sids[:0]
		if wk.strataOf != nil {
			wk.strata.reset()
			clear(wk.strataOf)
		}
	}
	if r := op.scan.Range; r != nil {
		// One cancellation checkpoint per ordered morsel.
		if err := ctx.Err(); err != nil {
			return morselPart{}, err
		}
		if err := wk.foldRun(groups, global, wk.sc.orderRun(r.Order[lo:hi]), 1, &counters); err != nil {
			return morselPart{}, err
		}
		wk.counters.Add(counters)
		return wk.part(groups), nil
	}
	blockSize := wk.table.BlockSize()
	for row := lo; row < hi; {
		// One cancellation checkpoint per block.
		if err := ctx.Err(); err != nil {
			return morselPart{}, err
		}
		block := row / blockSize
		blockEnd := min((block+1)*blockSize, hi)
		blockWeight := 1.0
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
		for ; row < blockEnd; row += runCap {
			sel := wk.sc.blockRun(row, min(row+runCap, blockEnd))
			if err := wk.foldRun(groups, global, sel, blockWeight, &counters); err != nil {
				return morselPart{}, err
			}
		}
		row = blockEnd
	}
	wk.counters.Add(counters)
	return wk.part(groups), nil
}

// foldRun filters, samples and accumulates one run — sel, the scratch's
// current run, kept at blockWeight — into groups (global, when set, is the
// one group of a global aggregate), tallying into c. The stages run in the
// order a row would meet them — scan filter, row sampler, then foldKept's:
// weight column, residual predicates, group, aggregates — each over the
// whole selection, and every accumulator still sees its rows in selection
// order.
func (wk *morselWorker) foldRun(groups map[string]*groupState, global *groupState,
	sel []int32, blockWeight float64, c *Counters) error {
	c.RowsScanned += int64(len(sel))
	if wk.op.scan.Filter != nil {
		var err error
		if sel, err = wk.op.kern.filter.narrow(wk.sc, mappedRow{t: wk.table}, sel, sel); err != nil {
			return err
		}
	}
	// The rows' weights: w each or, after a keyed sampler, ws[i] for sel[i].
	w, ws := blockWeight, []float64(nil)
	var gids []int32
	switch {
	case wk.uniform != nil:
		var rowWeight float64
		sel, rowWeight = wk.uniform.KeepRows(sel, sel)
		w *= rowWeight
	case wk.distinct != nil:
		// Counting from the morsel's first row, a row past the pass-through
		// is past it in the whole scan too: the coin decides it here. One
		// within it (weight 1: at rate 1 that is every row, which loses
		// nothing) waits for the counts of the morsels before.
		strata, sids, marks := groups, wk.sc.gids[:len(sel)], wk.sc.ws
		if wk.strataOf != nil {
			strata = wk.strataOf
		}
		if err := wk.strata.resolve(sel, sids, strata); err != nil {
			return err
		}
		for len(wk.ranks) < len(wk.strata.list) {
			wk.ranks = append(wk.ranks, 0)
		}
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
		if wk.strataOf == nil {
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
	return wk.foldKept(groups, global, sel, w, ws, gids, c)
}

// foldDeferred settles the rows morsel p set aside and folds the kept ones
// into its partial, after the rows the morsel folded itself. seen counts,
// per stratum key, the rows the morsels before p passed (up to the
// pass-through), and is brought up to date: a row is then decided exactly
// as the serial scan's sampler decides it, whatever the worker count.
func (wk *morselWorker) foldDeferred(p *morselPart, seen map[string]*int32) error {
	ranks := wk.ranks[:0]
	for _, st := range p.strata {
		n := seen[st.key]
		if n == nil {
			n = new(int32)
			seen[st.key] = n
		}
		ranks = append(ranks, *n)
	}
	wk.ranks = ranks
	var global *groupState
	switch {
	case wk.groups == nil:
		global = p.groups[""]
	case wk.strataOf == nil:
		wk.groups.list = p.strata // the stratum ids are the partial's group ids
	default:
		wk.groups.reset() // the partial's groups are taken up again as rows meet them
	}
	for lo, runCap := 0, len(wk.sc.ones); lo < len(p.rows); lo += runCap {
		hi := min(lo+runCap, len(p.rows))
		sel, sids, ws := wk.sc.orderRun(p.rows[lo:hi]), p.sids[lo:hi], wk.sc.ws
		wk.distinct.KeepRows(sel, sids, ranks, ws)
		k := 0
		for i, r := range sel {
			if ws[i] != 0 {
				sel[k], sids[k], ws[k] = r, sids[i], ws[i]
				k++
			}
		}
		var gids []int32
		if wk.strataOf == nil {
			gids = sids[:k]
		}
		if err := wk.foldKept(p.groups, global, sel[:k], 1, ws[:k], gids, &wk.counters); err != nil {
			return err
		}
	}
	for i, st := range p.strata {
		*seen[st.key] = ranks[i]
	}
	return nil
}

// foldKept accumulates the rows the samplers kept — sel, each weighing w
// or, with ws set, ws[i], and, with gids set, of the group gids[i] of the
// resolver's list — into groups, tallying into c.
func (wk *morselWorker) foldKept(groups map[string]*groupState, global *groupState,
	sel []int32, w float64, ws []float64, gids []int32, c *Counters) error {
	op := wk.op
	kern := &op.kern
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
	for _, f := range kern.residual {
		kept, err := f.narrow(wk.sc, mappedRow{t: wk.table, out: op.outIdx}, sel, wk.sc.kept)
		if err != nil {
			return err
		}
		// The weights (and group ids) follow their rows: kept is a
		// subsequence of sel.
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
		if sel, ws = sel[:k], ws[:k]; gids != nil {
			gids = gids[:k]
		}
	}
	if len(sel) == 0 {
		return nil
	}
	weighted := w != 1
	for i := 0; !sameWeight && !weighted && i < len(ws); i++ {
		weighted = ws[i] != 1
	}

	// Group: a group id per selected row. A global aggregate's run is one
	// segment of rows, its one group's; with few groups the run is regrouped
	// into a segment per group; either way a slot folds a segment in one
	// call. With many groups the rows stay put and fold one at a time.
	segs, ends := wk.one[:], wk.ends[:0]
	if global != nil {
		wk.one[0], ends = global, append(ends, int32(len(sel)))
	} else {
		if gids == nil {
			gids = wk.sc.gids[:len(sel)]
			if err := wk.groups.resolve(sel, gids, groups); err != nil {
				return err
			}
		}
		if segs = wk.groups.list; len(segs)*minRowsPerGroup <= len(sel) {
			sel, ws, ends = wk.regroup(sel, gids, ws, sameWeight)
		}
	}
	lo := int32(0)
	for g, hi := range ends {
		segs[g].n += float64(hi - lo)
		lo = hi
	}
	if len(ends) == 0 {
		for i, g := range gids {
			gs := segs[g]
			gs.n++
			if weighted && ws[i] != 1 {
				for _, st := range gs.aggs {
					st.weighted = true
				}
			}
		}
	}

	for j, spec := range op.node.Aggs {
		mode := kern.slotMode[j]
		var vals []float64
		var nulls []bool
		switch mode {
		case slotGeneral:
			mr := mappedRow{t: wk.table, out: op.outIdx}
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
				if err := accumulate(segs[g].aggs[j], spec, mr, ws[i]); err != nil {
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
			st, segVals, segWs := segs[g].aggs[j], vals[lo:hi], ws[lo:hi]
			if weighted && !st.weighted {
				for _, w := range segWs {
					st.weighted = st.weighted || w != 1
				}
			}
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
			st.nonNull += float64(len(segVals))
			if mode == slotPercentile {
				st.pctVals = append(st.pctVals, segVals...)
				st.pctWeights = append(st.pctWeights, segWs...)
			} else {
				st.ht.AddRun(segVals, segWs)
			}
			lo = hi
		}
		if len(ends) > 0 {
			continue
		}
		for i, g := range gids {
			if nulls != nil && nulls[i] {
				continue
			}
			st := segs[g].aggs[j]
			if mode == slotPercentile {
				st.pctVals = append(st.pctVals, vals[i])
				st.pctWeights = append(st.pctWeights, ws[i])
			} else {
				st.ht.Add(vals[i], ws[i])
			}
			st.nonNull++
		}
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
	ends := wk.ends[:len(wk.groups.list)]
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

// newGroupState builds an empty group state; groupVal is copied.
func newGroupState(key string, groupVal []storage.Value, slots int) *groupState {
	gs := &groupState{key: key}
	if len(groupVal) > 0 {
		gs.groupVal = append([]storage.Value(nil), groupVal...)
	}
	states := make([]aggState, slots)
	gs.aggs = make([]*aggState, slots)
	for j := range gs.aggs {
		gs.aggs[j] = &states[j]
	}
	return gs
}

// mergeGroupState folds src into dst; callers fold in morsel order.
func mergeGroupState(dst, src *groupState) {
	dst.n += src.n
	for j := range dst.aggs {
		mergeAggState(dst.aggs[j], src.aggs[j])
	}
}

// mergeAggState folds one aggregate's partial state into another. Every
// component is a plain sum, union, extremum, or ordered concatenation, so
// folding partials in morsel order reproduces the serial accumulation
// sequence of the same morsel decomposition exactly.
func mergeAggState(dst, src *aggState) {
	dst.ht.Merge(src.ht)
	dst.weighted = dst.weighted || src.weighted
	dst.nonNull += src.nonNull
	if !src.min.IsNull() && (dst.min.IsNull() || src.min.Compare(dst.min) < 0) {
		dst.min = src.min
	}
	if !src.max.IsNull() && (dst.max.IsNull() || src.max.Compare(dst.max) > 0) {
		dst.max = src.max
	}
	if len(src.distinct) > 0 {
		if dst.distinct == nil {
			dst.distinct = make(map[string]struct{}, len(src.distinct))
		}
		for k := range src.distinct {
			dst.distinct[k] = struct{}{}
		}
	}
	dst.pctVals = append(dst.pctVals, src.pctVals...)
	dst.pctWeights = append(dst.pctWeights, src.pctWeights...)
}
