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

// samplerStages is a scan's sampler as the row loops consume it
// (sample.Spec.Stages) and the keyer feeding a keyed row stage its stratum
// key. Zero for an unsampled scan. Samplers are deterministic functions of
// (seed, row/block index, key) — the distinct sampler of its caller's
// per-stratum count besides — so each morsel worker stages its own.
type samplerStages struct {
	sample.Stages
	keyer *sample.Keyer // sampler key columns; nil without any
}

// stageSampler instantiates s's sampler against one snapshot of its table.
func stageSampler(s *plan.Scan, keyIdx []int, table *storage.Table) (samplerStages, error) {
	if s.Sample == nil {
		return samplerStages{}, nil
	}
	st, err := s.Sample.Stages()
	if err != nil || len(keyIdx) == 0 {
		return samplerStages{Stages: st}, err
	}
	return samplerStages{Stages: st, keyer: sample.NewKeyer(table, keyIdx)}, nil
}
