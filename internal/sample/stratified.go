package sample

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/stats"
	"repro/internal/storage"
)

// WeightColumn is the name of the hidden Horvitz–Thompson weight column
// appended to materialized sample tables. Executors recognize it and use
// it as the row weight.
const WeightColumn = "__aqp_weight"

// StratifiedConfig controls offline stratified-sample construction
// (the BlinkDB-style "sample over a query column set").
type StratifiedConfig struct {
	// KeyColumns is the query column set (QCS) to stratify on.
	KeyColumns []string
	// CapPerStratum is K: each stratum keeps at most K rows (uniformly at
	// random within the stratum), so rare groups are kept whole and big
	// groups are thinned. Must be positive.
	CapPerStratum int
	// Seed drives the per-stratum reservoirs.
	Seed int64
}

// StratifiedResult is a materialized stratified sample: a table with the
// source schema plus a trailing weight column, and build metadata.
type StratifiedResult struct {
	Table        *storage.Table
	SourceRows   int
	SampleRows   int
	Strata       int
	SourceName   string
	KeyColumns   []string
	CapPerStrata int
	// BuildVersion is the source table's Version() at build time; compare
	// with the live version to detect staleness.
	BuildVersion uint64
}

// Fraction returns the achieved sampling fraction.
func (r *StratifiedResult) Fraction() float64 {
	if r.SourceRows == 0 {
		return 0
	}
	return float64(r.SampleRows) / float64(r.SourceRows)
}

// BuildStratified materializes a stratified sample of src. Each distinct
// combination of cfg.KeyColumns forms a stratum; a per-stratum reservoir
// of cfg.CapPerStratum rows is kept, and each kept row is assigned weight
// strataSize/min(strataSize, K).
func BuildStratified(src *storage.Table, cfg StratifiedConfig, name string) (*StratifiedResult, error) {
	if cfg.CapPerStratum <= 0 {
		return nil, fmt.Errorf("sample: stratified cap must be positive")
	}
	// Scan a snapshot so the build is safe under concurrent appends.
	src = src.Snapshot()

	keyIdx := make([]int, len(cfg.KeyColumns))
	for i, col := range cfg.KeyColumns {
		idx := src.Schema().ColumnIndex(col)
		if idx < 0 {
			return nil, fmt.Errorf("sample: stratify column %q not in table %s", col, src.Name())
		}
		keyIdx[i] = idx
	}
	version := src.Version()
	n := src.NumRows()

	type stratum struct {
		res  *Reservoir[int]
		size int
	}
	strata := make(map[string]*stratum)
	keyer := NewKeyer(src, keyIdx)
	for i := 0; i < n; i++ {
		key := keyer.Key(i)
		st, ok := strata[key]
		if !ok {
			st = &stratum{res: NewReservoir[int](cfg.CapPerStratum, cfg.Seed+int64(len(strata)))}
			strata[key] = st
		}
		st.res.Add(i)
		st.size++
	}

	outSchema := append(src.Schema().Clone(), storage.ColumnDef{Name: WeightColumn, Type: storage.TypeFloat64})
	out := storage.NewTable(name, outSchema)

	// Deterministic output order: sort strata keys, then row indexes.
	keys := make([]string, 0, len(strata))
	for k := range strata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		st := strata[k]
		rows := append([]int(nil), st.res.Items()...)
		sort.Ints(rows)
		w := float64(st.size) / float64(len(rows))
		for _, ri := range rows {
			vals := src.Row(ri)
			vals = append(vals, storage.Float64(w))
			if err := out.AppendRow(vals...); err != nil {
				return nil, err
			}
		}
	}
	return &StratifiedResult{
		Table:        out,
		SourceRows:   n,
		SampleRows:   out.NumRows(),
		Strata:       len(strata),
		SourceName:   src.Name(),
		KeyColumns:   append([]string(nil), cfg.KeyColumns...),
		CapPerStrata: cfg.CapPerStratum,
		BuildVersion: version,
	}, nil
}

// NeymanConfig controls variance-optimal stratified construction.
type NeymanConfig struct {
	// KeyColumns is the stratification column set.
	KeyColumns []string
	// ValueColumn is the numeric aggregation column whose per-stratum
	// spread drives the allocation (n_h ∝ N_h·S_h).
	ValueColumn string
	// TotalBudget is the target total sample size in rows.
	TotalBudget int
	// Seed drives the per-stratum reservoirs.
	Seed int64
}

// BuildStratifiedNeyman materializes a stratified sample whose per-stratum
// allocation minimizes the variance of SUM(ValueColumn) estimates for a
// fixed total budget (Neyman/optimal allocation — the STRAT-style upgrade
// over equal per-stratum caps). Two passes: stratum statistics, then
// per-stratum reservoirs at their allocated sizes.
func BuildStratifiedNeyman(src *storage.Table, cfg NeymanConfig, name string) (*StratifiedResult, error) {
	if cfg.TotalBudget <= 0 {
		return nil, fmt.Errorf("sample: Neyman budget must be positive")
	}
	// Scan a snapshot so the build is safe under concurrent appends.
	src = src.Snapshot()

	keyIdx := make([]int, len(cfg.KeyColumns))
	for i, col := range cfg.KeyColumns {
		idx := src.Schema().ColumnIndex(col)
		if idx < 0 {
			return nil, fmt.Errorf("sample: stratify column %q not in table %s", col, src.Name())
		}
		keyIdx[i] = idx
	}
	valIdx := src.Schema().ColumnIndex(cfg.ValueColumn)
	if valIdx < 0 {
		return nil, fmt.Errorf("sample: value column %q not in table %s", cfg.ValueColumn, src.Name())
	}
	if !src.Schema()[valIdx].Type.Numeric() {
		return nil, fmt.Errorf("sample: value column %q is not numeric", cfg.ValueColumn)
	}
	version := src.Version()
	n := src.NumRows()

	// Pass 1: per-stratum size and spread (Welford).
	type stratStat struct {
		n, mean, m2 float64
	}
	statsBy := make(map[string]*stratStat)
	var order []string
	keyer := NewKeyer(src, keyIdx)
	for i := 0; i < n; i++ {
		key := keyer.Key(i)
		st, ok := statsBy[key]
		if !ok {
			st = &stratStat{}
			statsBy[key] = st
			order = append(order, key)
		}
		st.n++
		x := src.Column(valIdx).Value(i).AsFloat()
		d := x - st.mean
		st.mean += d / st.n
		st.m2 += d * (x - st.mean)
	}
	sort.Strings(order)
	sizes := make([]float64, len(order))
	devs := make([]float64, len(order))
	for h, key := range order {
		st := statsBy[key]
		sizes[h] = st.n
		if st.n > 1 {
			devs[h] = math.Sqrt(st.m2 / st.n)
		}
	}
	alloc := stats.NeymanAllocation(sizes, devs, float64(cfg.TotalBudget))
	capBy := make(map[string]int, len(order))
	for h, key := range order {
		c := int(alloc[h] + 0.5)
		if c < 1 {
			c = 1
		}
		capBy[key] = c
	}

	// Pass 2: per-stratum reservoirs at the allocated sizes.
	res := make(map[string]*Reservoir[int], len(order))
	for h, key := range order {
		res[key] = NewReservoir[int](capBy[key], cfg.Seed+int64(h))
	}
	for i := 0; i < n; i++ {
		res[keyer.Key(i)].Add(i)
	}

	outSchema := append(src.Schema().Clone(), storage.ColumnDef{Name: WeightColumn, Type: storage.TypeFloat64})
	out := storage.NewTable(name, outSchema)
	for _, key := range order {
		r := res[key]
		rows := append([]int(nil), r.Items()...)
		sort.Ints(rows)
		w := float64(statsBy[key].n) / float64(len(rows))
		for _, ri := range rows {
			vals := append(src.Row(ri), storage.Float64(w))
			if err := out.AppendRow(vals...); err != nil {
				return nil, err
			}
		}
	}
	return &StratifiedResult{
		Table:        out,
		SourceRows:   n,
		SampleRows:   out.NumRows(),
		Strata:       len(order),
		SourceName:   src.Name(),
		KeyColumns:   append([]string(nil), cfg.KeyColumns...),
		BuildVersion: version,
	}, nil
}

// BuildUniformTable materializes a uniform Bernoulli sample of src at rate
// p as a standalone table with a weight column (all weights 1/p).
func BuildUniformTable(src *storage.Table, p float64, seed int64, name string) (*StratifiedResult, error) {
	if !(p > 0 && p <= 1) {
		return nil, fmt.Errorf("sample: uniform rate %v out of (0,1]", p)
	}
	// Scan a snapshot so the build is safe under concurrent appends.
	src = src.Snapshot()

	version := src.Version()
	n := src.NumRows()
	u := NewUniform(p, seed)
	outSchema := append(src.Schema().Clone(), storage.ColumnDef{Name: WeightColumn, Type: storage.TypeFloat64})
	out := storage.NewTable(name, outSchema)
	for i := 0; i < n; i++ {
		d := u.Decide(i, "")
		if !d.Keep {
			continue
		}
		vals := append(src.Row(i), storage.Float64(d.Weight))
		if err := out.AppendRow(vals...); err != nil {
			return nil, err
		}
	}
	return &StratifiedResult{
		Table:        out,
		SourceRows:   n,
		SampleRows:   out.NumRows(),
		Strata:       1,
		SourceName:   src.Name(),
		BuildVersion: version,
	}, nil
}
