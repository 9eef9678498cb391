package exec

import (
	"context"
	"fmt"

	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/storage"
	"repro/internal/trace"
)

// scanOp reads a base table block by block, applying (in order) the block
// sampler decision, the pushed-down filter, and then the row-level sampler
// decision. Filter-before-sampler matters for the stateful distinct
// sampler: its per-stratum pass-through must count only qualifying rows so
// small *output* groups survive; for the stateless samplers the two orders
// are distributionally identical (the sampling-equivalence rule). It is the
// reference for that sampler: it feeds sample.Distinct one row at a time in
// scan order, and the morsel scan, which counts per morsel and settles the
// rest in its ordered merge, must keep the rows this keeps.
type scanOp struct {
	scan     *plan.Scan
	counters *Counters
	ctx      context.Context
	scanBinding
	samplerStages

	table *storage.Table
	// pos is the cursor over [pos, end): table rows in storage order, or
	// positions of order when the scan is ranged.
	pos, end int
	order    []int32
	block    int
	filter   rowFilter // the scan filter, from the morsel path's compiler
	sc       *scratch
	scanned  int64 // rows examined by this operator (for trace rows-in)
}

func newScanOp(ctx context.Context, s *plan.Scan, counters *Counters) (*scanOp, error) {
	b, err := bindScan(s)
	if err != nil {
		return nil, err
	}
	return &scanOp{scan: s, counters: counters, ctx: ctx, scanBinding: b}, nil
}

// scanBinding is a plan.Scan resolved against its table's schema. The
// serial scan and the fused morsel scan read the table through it.
type scanBinding struct {
	outIdx    []int // table column index per scan output column
	weightIdx int   // hidden weight column in table, or -1
	keyIdx    []int // sampler key columns in table
}

func bindScan(s *plan.Scan) (scanBinding, error) {
	b := scanBinding{weightIdx: s.WeightColumnIndex()}
	if s.Range != nil && s.Sample != nil {
		return b, fmt.Errorf("exec: scan %s: a ranged scan takes no sampler", s.TableName)
	}
	tschema := s.Table.Schema()
	for _, def := range s.Schema() {
		idx := tschema.ColumnIndex(def.Name)
		if idx < 0 {
			return b, fmt.Errorf("exec: scan %s: lost column %s", s.TableName, def.Name)
		}
		b.outIdx = append(b.outIdx, idx)
	}
	if s.Sample != nil {
		for _, col := range s.Sample.KeyColumns {
			idx := tschema.ColumnIndex(col)
			if idx < 0 {
				return b, fmt.Errorf("exec: sampler key column %q not in table %s", col, s.TableName)
			}
			b.keyIdx = append(b.keyIdx, idx)
		}
	}
	return b, nil
}

// samplerStages is a scan's sampler split the way the row loops consume
// it: a block stage that skips whole blocks, a row stage that thins the
// rows of kept blocks, and the keyer feeding the row stage its stratum key.
// All nil for an unsampled scan. Samplers are deterministic functions of
// (seed, row/block index, key) — the distinct sampler of its caller's
// per-stratum count besides — so each morsel worker stages its own.
type samplerStages struct {
	blockSamp *sample.Block
	sampler   sample.RowSampler
	uniform   *sample.Uniform  // sampler, when it is one: decides a run at a time
	distinct  *sample.Distinct // sampler, when it is one: the morsel scan decides a run by stratum ids
	keyer     *sample.Keyer    // sampler key columns; nil without any
}

// stageSampler instantiates s's sampler against one snapshot of its table.
func stageSampler(s *plan.Scan, keyIdx []int, table *storage.Table) (samplerStages, error) {
	var st samplerStages
	if s.Sample == nil {
		return st, nil
	}
	rs, err := sample.New(*s.Sample, table.BlockSize())
	if err != nil {
		return st, err
	}
	switch t := rs.(type) {
	case *sample.Block:
		st.blockSamp = t
	case *sample.BiLevel:
		// Split the stages so non-sampled blocks are skipped at the
		// block level and kept blocks are thinned row by row.
		st.blockSamp = t.BlockSampler()
		st.sampler = t.RowStage()
	default:
		st.sampler = rs
	}
	st.uniform, _ = st.sampler.(*sample.Uniform)
	st.distinct, _ = st.sampler.(*sample.Distinct)
	if len(keyIdx) > 0 {
		st.keyer = sample.NewKeyer(table, keyIdx)
	}
	return st, nil
}

// Schema implements Operator.
func (op *scanOp) Schema() storage.Schema { return op.scan.Schema() }

// Open implements Operator.
func (op *scanOp) Open() error {
	// Scan a snapshot: concurrent appends to the live table neither tear
	// the read prefix nor move the row count mid-scan.
	op.table = op.scan.Table.Snapshot()
	op.pos, op.end, op.order = 0, op.table.NumRows(), nil
	if r := op.scan.Range; r != nil {
		op.pos, op.end, op.order = r.Lo, r.Hi, r.Order
	}
	c := &compiler{t: op.table}
	if op.scan.Filter != nil {
		op.filter = c.filter(op.scan.Filter)
	}
	op.sc = newScratch(c, min(maxRunRows, op.table.BlockSize(), max(op.table.NumRows(), 1)))
	var err error
	if op.samplerStages, err = stageSampler(op.scan, op.keyIdx, op.table); err != nil {
		return err
	}
	op.block = 0
	op.counters.Passes++
	return nil
}

// Next implements Operator.
func (op *scanOp) Next() (*Batch, error) {
	if op.pos >= op.end {
		return nil, nil
	}
	// One cancellation checkpoint per batch: long scans under a blocking
	// parent (hash aggregate, sort) still observe deadlines at BatchSize
	// granularity because every batch is produced here.
	if err := op.ctx.Err(); err != nil {
		return nil, err
	}
	batch := &Batch{}
	blockSize := op.table.BlockSize()
	for batch.Len() < BatchSize && op.pos < op.end {
		// The run read next: the rest of the current block, or the next rows
		// an order names, and no more rows than the batch has room for — so
		// a full batch ends the scan's reading exactly at its last row.
		n := min(BatchSize-batch.Len(), len(op.sc.rows), op.end-op.pos)
		blockWeight := 1.0
		var sel []int32
		if op.order != nil {
			sel = op.sc.orderRun(op.order[op.pos : op.pos+n])
			op.pos += n
		} else {
			runEnd := min((op.block+1)*blockSize, op.end)
			if op.blockSamp != nil {
				d := op.blockSamp.DecideBlock(op.block)
				if !d.Keep {
					op.counters.BlocksSkipped++
					op.pos = runEnd
					op.block++
					continue
				}
				if op.pos == op.block*blockSize {
					// Count each kept block once, on first entry.
					op.counters.BlocksScanned++
				}
				blockWeight = d.Weight
			}
			n = min(n, runEnd-op.pos)
			sel = op.sc.blockRun(op.pos, op.pos+n)
			if op.pos += n; op.pos == runEnd {
				op.block++
			}
		}
		op.counters.RowsScanned += int64(n)
		op.scanned += int64(n)
		if op.scan.Filter != nil {
			var err error
			if sel, err = op.filter.narrow(op.sc, mappedRow{t: op.table}, sel, sel); err != nil {
				return nil, err
			}
		}
		for _, r := range sel {
			row := int(r)
			w := blockWeight
			if op.sampler != nil {
				key := ""
				if op.keyer != nil {
					key = op.keyer.Key(row)
				}
				d := op.sampler.Decide(row, key)
				if !d.Keep {
					continue
				}
				w *= d.Weight
			}
			if op.weightIdx >= 0 {
				wv := op.table.Column(op.weightIdx).Value(row)
				if !wv.IsNull() {
					w *= wv.AsFloat()
				}
			}
			out := make([]storage.Value, len(op.outIdx))
			for i, idx := range op.outIdx {
				out[i] = op.table.Column(idx).Value(row)
			}
			batch.Rows = append(batch.Rows, out)
			if w != 1 || batch.Weights != nil {
				if batch.Weights == nil {
					batch.Weights = make([]float64, batch.Len()-1)
					for i := range batch.Weights {
						batch.Weights[i] = 1
					}
				}
				batch.Weights = append(batch.Weights, w)
			}
			op.counters.RowsEmitted++
		}
	}
	if batch.Len() == 0 {
		// The loop exits with an empty batch only when the scan is
		// exhausted.
		return nil, nil
	}
	return batch, nil
}

// Close implements Operator. A scan's true input cardinality is not
// visible from child batches, so it reports the rows it examined to its
// span; everything above infers rows-in from child rows-out.
func (op *scanOp) Close() error {
	trace.SpanFromContext(op.ctx).SetRowsIn(op.scanned)
	if op.sc != nil {
		op.sc.release()
	}
	return nil
}
