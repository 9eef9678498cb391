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
	keyer, err := strataKeyer(src, cfg.KeyColumns)
	if err != nil {
		return nil, err
	}
	strata := make(map[string]*stratum)
	for i := range src.NumRows() {
		key := keyer.Key(i)
		st, ok := strata[key]
		if !ok {
			st = &stratum{res: NewReservoir[int](cfg.CapPerStratum, cfg.Seed+int64(len(strata)))}
			strata[key] = st
		}
		st.res.Add(i)
		st.size++
	}
	res, err := writeStrata(src, strata, cfg.KeyColumns, name)
	if err != nil {
		return nil, err
	}
	res.CapPerStrata = cfg.CapPerStratum
	return res, nil
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
	keyer, err := strataKeyer(src, cfg.KeyColumns)
	if err != nil {
		return nil, err
	}
	valIdx := src.Schema().ColumnIndex(cfg.ValueColumn)
	if valIdx < 0 {
		return nil, fmt.Errorf("sample: value column %q not in table %s", cfg.ValueColumn, src.Name())
	}
	if !src.Schema()[valIdx].Type.Numeric() {
		return nil, fmt.Errorf("sample: value column %q is not numeric", cfg.ValueColumn)
	}
	n, val := src.NumRows(), src.Column(valIdx)

	// Pass 1: per-stratum size and spread (Welford).
	strata := make(map[string]*stratum)
	for i := 0; i < n; i++ {
		key := keyer.Key(i)
		st, ok := strata[key]
		if !ok {
			st = &stratum{}
			strata[key] = st
		}
		st.size++
		x := val.Value(i).AsFloat()
		d := x - st.mean
		st.mean += d / float64(st.size)
		st.m2 += d * (x - st.mean)
	}
	order := sortedKeys(strata)
	sizes := make([]float64, len(order))
	devs := make([]float64, len(order))
	for h, key := range order {
		st := strata[key]
		sizes[h] = float64(st.size)
		if st.size > 1 {
			devs[h] = math.Sqrt(st.m2 / sizes[h])
		}
	}
	alloc := stats.NeymanAllocation(sizes, devs, float64(cfg.TotalBudget))

	// Pass 2: per-stratum reservoirs at the allocated sizes.
	for h, key := range order {
		strata[key].res = NewReservoir[int](max(int(alloc[h]+0.5), 1), cfg.Seed+int64(h))
	}
	for i := 0; i < n; i++ {
		strata[keyer.Key(i)].res.Add(i)
	}
	return writeStrata(src, strata, cfg.KeyColumns, name)
}

// BuildUniformTable materializes a uniform Bernoulli sample of src at rate
// p as a standalone table with a weight column (all weights 1/p).
func BuildUniformTable(src *storage.Table, p float64, seed int64, name string) (*StratifiedResult, error) {
	if !(p > 0 && p <= 1) {
		return nil, fmt.Errorf("sample: uniform rate %v out of (0,1]", p)
	}
	// Scan a snapshot so the build is safe under concurrent appends.
	src = src.Snapshot()
	out, err := writeUniform(src, p, seed, nil, name)
	if err != nil {
		return nil, err
	}
	return &StratifiedResult{
		Table:        out,
		SourceRows:   src.NumRows(),
		SampleRows:   out.NumRows(),
		Strata:       1,
		SourceName:   src.Name(),
		BuildVersion: src.Version(),
	}, nil
}

// stratum is one stratum of a stratified build: its row count, the running
// mean and squared deviations of the value column a Neyman allocation
// reads, and the reservoir of the rows it keeps.
type stratum struct {
	size     int
	mean, m2 float64
	res      *Reservoir[int]
}

// strataKeyer resolves the stratification columns of src.
func strataKeyer(src *storage.Table, cols []string) (*Keyer, error) {
	idx := make([]int, len(cols))
	for i, col := range cols {
		if idx[i] = src.Schema().ColumnIndex(col); idx[i] < 0 {
			return nil, fmt.Errorf("sample: stratify column %q not in table %s", col, src.Name())
		}
	}
	return NewKeyer(src, idx), nil
}

// sortedKeys returns the strata's keys in order.
func sortedKeys(strata map[string]*stratum) []string {
	keys := make([]string, 0, len(strata))
	for k := range strata {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeStrata writes the rows the strata's reservoirs hold as a stored
// sample of src: strata in key order, each one's rows in row order at
// weight size/kept, so a stratum's weights sum to its size.
func writeStrata(src *storage.Table, strata map[string]*stratum, keyCols []string, name string) (*StratifiedResult, error) {
	var rows []int
	var weights []float64
	for _, key := range sortedKeys(strata) {
		st := strata[key]
		kept := st.res.Items()
		from := len(rows)
		rows = append(rows, kept...)
		sort.Ints(rows[from:])
		w := float64(st.size) / float64(len(kept))
		for range kept {
			weights = append(weights, w)
		}
	}
	out, err := writeSample(src, rows, weights, name)
	if err != nil {
		return nil, err
	}
	return &StratifiedResult{
		Table:        out,
		SourceRows:   src.NumRows(),
		SampleRows:   out.NumRows(),
		Strata:       len(strata),
		SourceName:   src.Name(),
		KeyColumns:   append([]string(nil), keyCols...),
		BuildVersion: src.Version(),
	}, nil
}

// writeUniform writes the rows of src a uniform sampler at rate p keeps,
// but for those in skip, as a stored sample at weight 1/p.
func writeUniform(src *storage.Table, p float64, seed int64, skip map[int]bool, name string) (*storage.Table, error) {
	u := NewUniform(p, seed)
	var rows []int
	var weights []float64
	for i := range src.NumRows() {
		if d := u.Decide(i); d.Keep && !skip[i] {
			rows = append(rows, i)
			weights = append(weights, d.Weight)
		}
	}
	return writeSample(src, rows, weights, name)
}

// writeSample is the one writer of a stored sample: src's rows at rows,
// in order, each with its weight in the trailing weight column, copied in
// one append.
func writeSample(src *storage.Table, rows []int, weights []float64, name string) (*storage.Table, error) {
	out := storage.NewTable(name, append(src.Schema().Clone(), storage.ColumnDef{Name: WeightColumn, Type: storage.TypeFloat64}))
	if err := out.AppendGather(src, rows, weights); err != nil {
		return nil, err
	}
	return out, nil
}
