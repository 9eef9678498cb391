package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Offline-engine injection points: engine entry and the sample rebuild
// path.
var (
	injectOffline        = fault.NewPoint("core.offline", "offline-samples engine entry")
	injectOfflineRebuild = fault.NewPoint("core.offline.rebuild", "offline sample store rebuild")
)

// StalePolicy selects the offline engine's behavior when the base table
// has changed since the samples were built.
type StalePolicy uint8

// Stale policies.
const (
	// StaleFallbackExact runs the query exactly (safe, slow).
	StaleFallbackExact StalePolicy = iota
	// StaleServe answers from the stale sample with GuaranteeNone —
	// what a system that skips maintenance silently does.
	StaleServe
)

// OfflineConfig tunes offline sample construction and selection.
type OfflineConfig struct {
	// Caps are the per-stratum row caps of the stratified samples built
	// per query column set (one sample per cap — the error–latency
	// ladder).
	Caps []int
	// UniformRates are the rates of the workload-agnostic uniform
	// samples built per table.
	UniformRates []float64
	// SafetyFactor inflates profiled errors before certifying a sample
	// against a spec (>= 1).
	SafetyFactor float64
	// StalePolicy picks the staleness behavior.
	StalePolicy StalePolicy
	// Seed drives sample construction.
	Seed int64
}

// DefaultOfflineConfig returns caps {64, 256, 1024}, uniform rates
// {1%, 5%}, safety factor 1.5, exact fallback on staleness.
func DefaultOfflineConfig() OfflineConfig {
	return OfflineConfig{
		Caps:         []int{64, 256, 1024},
		UniformRates: []float64{0.01, 0.05},
		SafetyFactor: 1.5,
		Seed:         7,
	}
}

// StoredSample is one materialized sample plus its metadata and
// error–latency profile entries.
type StoredSample struct {
	// Name is the sample's unique identifier.
	Name string
	// Source is the base table name.
	Source string
	// QCS is the stratification column set (nil for uniform samples).
	QCS []string
	// Cap is the per-stratum cap (stratified) or 0.
	Cap int
	// Rate is the sampling rate (uniform) or 0.
	Rate float64
	// Data is the materialized sample (with weight column).
	Data *storage.Table
	// Rows is the sample size.
	Rows int
	// BuildVersion is the base table version at build time.
	BuildVersion uint64
	// BuildRows is the base table row count at build time — the row
	// watermark staleness attribution is measured against. Unlike
	// BuildCostRows it is refreshed on Rebuild.
	BuildRows int
	// BuildCostRows is the number of base rows scanned to build it.
	BuildCostRows int
	// Profile maps a profile key (see profileKey) to the maximum
	// relative error observed when answering profiling queries of that
	// shape from this sample.
	Profile map[string]float64
}

// Fresh reports whether the sample still matches the base table.
func (s *StoredSample) Fresh(cat *storage.Catalog) bool {
	t, err := cat.Table(s.Source)
	if err != nil {
		return false
	}
	return t.Version() == s.BuildVersion
}

// MaintenanceStats tallies the cumulative cost of keeping offline samples
// fresh — the P2 axis.
type MaintenanceStats struct {
	Rebuilds      int
	RowsScanned   int64
	WallTime      time.Duration
	SamplesBuilt  int
	BytesEstimate int64
}

// OfflineEngine answers queries from precomputed stratified/uniform
// samples in the style the paper attributes to BlinkDB: samples are built
// per query column set ahead of time, an error–latency profile maps specs
// to the cheapest adequate sample, and a-priori guarantees hold exactly as
// long as the workload stays inside the predicted QCS set and the data
// does not move.
type OfflineEngine struct {
	Catalog *storage.Catalog
	Config  OfflineConfig

	// mu guards the sample registry, profiles, maintenance stats, and
	// nextID: queries read the registry concurrently; BuildSamples,
	// Rebuild, and ProfileQuery write it.
	mu          sync.RWMutex
	samples     map[string][]*StoredSample // by source table
	maintenance MaintenanceStats
	nextID      int
}

// NewOfflineEngine builds an offline engine (no samples yet; call
// BuildSamples).
func NewOfflineEngine(cat *storage.Catalog, cfg OfflineConfig) *OfflineEngine {
	if cfg.SafetyFactor < 1 {
		cfg.SafetyFactor = 1
	}
	return &OfflineEngine{Catalog: cat, Config: cfg,
		samples: make(map[string][]*StoredSample)}
}

// Name implements Engine.
func (e *OfflineEngine) Name() Technique { return TechniqueOffline }

// Samples returns the stored samples for a table (a copied slice; the
// stored samples themselves are shared).
func (e *OfflineEngine) Samples(table string) []*StoredSample {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]*StoredSample(nil), e.samples[table]...)
}

// MaintenanceStats returns a copy of the cumulative maintenance stats
// under the engine lock.
func (e *OfflineEngine) MaintenanceStats() MaintenanceStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.maintenance
}

// BuildSamples materializes the configured sample ladder for a table:
// one stratified sample per (QCS, cap) pair plus uniform samples at the
// configured rates. This is the precomputation step — its cost is recorded
// in MaintenanceStats.
func (e *OfflineEngine) BuildSamples(table string, qcsList [][]string) error {
	t, err := e.Catalog.Table(table)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	start := time.Now()
	var ladder []*StoredSample
	for _, qcs := range qcsList {
		if len(qcs) == 0 {
			continue
		}
		for _, cap := range e.Config.Caps {
			ladder = append(ladder, &StoredSample{QCS: append([]string(nil), qcs...), Cap: cap})
		}
	}
	for _, rate := range e.Config.UniformRates {
		ladder = append(ladder, &StoredSample{Rate: rate})
	}
	for _, s := range ladder {
		e.nextID++
		s.Name, s.Source = fmt.Sprintf("%s__sample%d", table, e.nextID), table
		s.Profile = make(map[string]float64)
		if err := e.materialize(s, t); err != nil {
			return err
		}
		s.BuildCostRows = s.BuildRows
		e.samples[table] = append(e.samples[table], s)
		e.maintenance.SamplesBuilt++
		e.maintenance.RowsScanned += int64(s.BuildCostRows)
	}
	e.maintenance.WallTime += time.Since(start)
	return nil
}

// materialize draws s — stratified on its QCS, else uniform at its rate —
// from t's current contents and stamps the build watermark. The seed moves
// with nextID so no two builds share one. Caller holds e.mu.
func (e *OfflineEngine) materialize(s *StoredSample, t *storage.Table) error {
	seed := e.Config.Seed + int64(e.nextID)
	var res *sample.StratifiedResult
	var err error
	if len(s.QCS) > 0 {
		res, err = sample.BuildStratified(t, sample.StratifiedConfig{
			KeyColumns: s.QCS, CapPerStratum: s.Cap, Seed: seed}, s.Name)
	} else {
		res, err = sample.BuildUniformTable(t, s.Rate, seed, s.Name)
	}
	if err != nil {
		return err
	}
	s.Data, s.Rows, s.BuildVersion, s.BuildRows = res.Table, res.SampleRows, res.BuildVersion, res.SourceRows
	return nil
}

// Rebuild refreshes every sample of a table against its current contents,
// accumulating maintenance cost.
func (e *OfflineEngine) Rebuild(table string) error {
	if err := injectOfflineRebuild.Inject(); err != nil {
		return err
	}
	t, err := e.Catalog.Table(table)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	start := time.Now()
	for _, s := range e.samples[table] {
		// Profiles refer to the old data distribution; conservatively
		// keep them (they were built from the template shapes, which
		// survive a rebuild).
		if err := e.materialize(s, t); err != nil {
			return err
		}
		e.nextID++
		e.maintenance.RowsScanned += int64(t.NumRows())
	}
	e.maintenance.Rebuilds++
	e.maintenance.WallTime += time.Since(start)
	return nil
}

// profileKey canonicalizes a query's shape for profile lookup: the fact
// table plus its sorted QCS.
func profileKey(table string, qcs []string) string {
	cp := append([]string(nil), qcs...)
	sort.Strings(cp)
	return table + "|" + strings.Join(cp, ",")
}

// ProfileQuery runs one profiling query against every applicable sample,
// grades each answer against the exact one (Grade: rows pair by group key,
// and a group either side lacks profiles at error 1), and records the
// realized maximum relative error. Call this offline with representative
// workload queries to build the error–latency profile.
func (e *OfflineEngine) ProfileQuery(sql string) error {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return err
	}
	table := stmt.From.Name
	cands := e.Samples(table)
	if len(cands) == 0 {
		return nil
	}
	ctx := context.Background()
	exactRes, err := NewExactEngine(e.Catalog).Execute(ctx, stmt, DefaultErrorSpec)
	if err != nil {
		return err
	}
	qcs := e.queryQCS(stmt)
	key := profileKey(table, qcs)
	for _, s := range cands {
		if !e.applicable(s, stmt, qcs) {
			continue
		}
		e.mu.RLock()
		in := s.standIn()
		e.mu.RUnlock()
		approx, err := execute(ctx, e.Catalog, stmt, DefaultErrorSpec, draw{
			tech: TechniqueOffline, guarantee: GuaranteeNone, standIn: &in, strip: true})
		if err != nil {
			continue
		}
		relErr := Grade(approx, exactRes).MaxRelError()
		e.mu.Lock()
		if prev, ok := s.Profile[key]; !ok || relErr > prev {
			s.Profile[key] = relErr
		}
		e.mu.Unlock()
	}
	return nil
}

// queryQCS extracts the query column set: GROUP BY columns plus
// WHERE-referenced columns that belong to the fact table.
func (e *OfflineEngine) queryQCS(stmt *sqlparse.SelectStmt) []string {
	t, err := e.Catalog.Table(stmt.From.Name)
	if err != nil {
		return nil
	}
	seen := make(map[string]bool)
	var out []string
	add := func(cols []string) {
		for _, c := range cols {
			if !seen[c] && t.Schema().ColumnIndex(c) >= 0 {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	for _, g := range stmt.GroupBy {
		add(expr.Columns(g))
	}
	if stmt.Where != nil {
		add(expr.Columns(stmt.Where))
	}
	sort.Strings(out)
	return out
}

// applicable reports whether a sample can answer a query's shape:
// stratified samples require their QCS to cover the query's GROUP BY
// columns (groups guaranteed present); uniform samples apply to
// non-grouped queries and, without coverage guarantees, to grouped ones.
func (e *OfflineEngine) applicable(s *StoredSample, stmt *sqlparse.SelectStmt, qcs []string) bool {
	if len(s.QCS) == 0 {
		return true
	}
	cover := make(map[string]bool, len(s.QCS))
	for _, c := range s.QCS {
		cover[c] = true
	}
	for _, g := range stmt.GroupBy {
		for _, c := range expr.Columns(g) {
			t, err := e.Catalog.Table(stmt.From.Name)
			if err != nil {
				return false
			}
			if t.Schema().ColumnIndex(c) >= 0 && !cover[c] {
				return false
			}
		}
	}
	return true
}

// standIn is the sample as a draw's stand-in for its source table. Rebuild
// swaps Data and the watermark wholesale (each build is immutable once
// materialized), so the caller holds the registry lock.
func (s *StoredSample) standIn() standIn {
	return standIn{source: s.Source, data: s.Data, name: s.Name,
		buildVersion: s.BuildVersion, buildRows: s.BuildRows}
}

// offlineCand is one certified candidate with the facts captured under
// the registry lock, so later reporting needs no further locking.
type offlineCand struct {
	standIn
	prof float64
}

// selectSample picks the cheapest applicable candidate whose profile
// certifies the spec, under the registry lock — the one certification test,
// shared with the Advisor. Stale candidates are skipped when freshOnly and
// otherwise handled per the stale policy.
func (e *OfflineEngine) selectSample(stmt *sqlparse.SelectStmt, spec ErrorSpec, freshOnly bool) *offlineCand {
	table := stmt.From.Name
	qcs := e.queryQCS(stmt)
	key := profileKey(table, qcs)
	e.mu.RLock()
	defer e.mu.RUnlock()
	var best *offlineCand
	for _, s := range e.samples[table] {
		if !e.applicable(s, stmt, qcs) {
			continue
		}
		prof, profiled := s.Profile[key]
		if !profiled || prof*e.Config.SafetyFactor > spec.RelError {
			continue
		}
		stale := !s.Fresh(e.Catalog)
		if stale && (freshOnly || e.Config.StalePolicy == StaleFallbackExact) {
			continue
		}
		// A stale candidate here is served (StaleServe) under a
		// downgraded guarantee.
		if best == nil || s.Rows < best.data.NumRows() {
			best = &offlineCand{standIn: s.standIn(), prof: prof}
			best.stale = stale
		}
	}
	return best
}

// Execute implements Engine: the draw is the cheapest stored sample
// certified for the spec (fresh, or stale as the policy permits), standing
// in for its source table; without one the statement runs exactly. The
// sample is the whole draw: the statement's TABLESAMPLE clauses are
// stripped, as ProfileQuery strips them, since the certificate is for the
// sample as stored.
func (e *OfflineEngine) Execute(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (*Result, error) {
	return engineRun(ctx, "offline", injectOffline, spec, func(ctx context.Context, spec ErrorSpec) (*Result, error) {
		best, why := e.certified(ctx, stmt, spec)
		if best == nil {
			return e.exactEngine().fallBack(ctx, stmt, spec, "offline: "+why)
		}
		d := draw{tech: TechniqueOffline, guarantee: GuaranteeAPriori, standIn: &best.standIn,
			strip: true,
			notes: []string{fmt.Sprintf("offline: answered from sample %s (%d rows, profiled err %.4f)",
				best.name, best.data.NumRows(), best.prof)}}
		if stmt.From.Sample != nil || slices.ContainsFunc(stmt.Joins,
			func(j sqlparse.JoinClause) bool { return j.Table.Sample != nil }) {
			d.notes = append(d.notes, "offline: TABLESAMPLE ignored — the stored sample is the draw")
		}
		if best.stale {
			d.guarantee = GuaranteeNone
		}
		return execute(ctx, e.Catalog, stmt, spec, d)
	})
}

// exactEngine builds the exact-fallback engine.
func (e *OfflineEngine) exactEngine() *ExactEngine {
	return NewExactEngine(e.Catalog)
}

// certified selects the sample that answers the statement; a nil candidate
// comes with why the statement runs exactly.
func (e *OfflineEngine) certified(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (*offlineCand, string) {
	if ok, reason := supportedForSampling(stmt); !ok {
		return nil, "fell back to exact: " + reason
	}
	table := stmt.From.Name
	if len(e.Samples(table)) == 0 {
		return nil, "no samples for table " + table
	}
	selsp, _ := trace.StartSpan(ctx, "select-sample")
	defer selsp.End()
	best := e.selectSample(stmt, spec, false)
	if best == nil {
		return nil, "no certified sample for spec (unpredicted QCS, too-tight spec, or stale samples)"
	}
	selsp.SetAttr("sample", best.name)
	selsp.SetAttrInt("sample_rows", int64(best.data.NumRows()))
	selsp.SetAttrFloat("profiled_err", best.prof)
	return best, ""
}
