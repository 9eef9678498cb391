package exec

import (
	"fmt"

	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/storage"
)

// scanBinding is a plan.Scan resolved against its table's schema. The
// morsel scan reads the table through it.
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
	uniform   *sample.Uniform  // sampler, when it is one: the morsel scan reads only the rows it keeps
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
