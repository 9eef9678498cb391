package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Offline-engine injection points: engine entry and the sample rebuild
// path (the transient-failure seam the retry/backoff guards).
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
	// StaleRebuild rebuilds the affected samples first (the maintenance
	// cost the paper highlights), then answers.
	StaleRebuild
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
	// Workers is the morsel-parallel worker count for sample scans; 0
	// defers to a context override or runtime.GOMAXPROCS.
	Workers int
	// RebuildRetries is the total attempt count for inline sample
	// rebuilds under StaleRebuild; transient failures are retried with
	// jittered exponential backoff (default 3).
	RebuildRetries int
	// RebuildBackoff is the base backoff between rebuild attempts
	// (default 2ms, doubling per attempt).
	RebuildBackoff time.Duration
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

	// mu guards the sample registry, profiles, Maintenance stats, and
	// nextID: queries read the registry concurrently; BuildSamples,
	// Rebuild, and ProfileQuery write it.
	mu          sync.RWMutex
	samples     map[string][]*StoredSample // by source table
	Maintenance MaintenanceStats
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
	return e.Maintenance
}

// BuildSamples materializes the configured sample ladder for a table:
// one stratified sample per (QCS, cap) pair plus uniform samples at the
// configured rates. This is the precomputation step — its cost is recorded
// in Maintenance.
func (e *OfflineEngine) BuildSamples(table string, qcsList [][]string) error {
	t, err := e.Catalog.Table(table)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	start := time.Now()
	for _, qcs := range qcsList {
		if len(qcs) == 0 {
			continue
		}
		for _, cap := range e.Config.Caps {
			name := e.sampleName(table)
			res, err := sample.BuildStratified(t, sample.StratifiedConfig{
				KeyColumns: qcs, CapPerStratum: cap, Seed: e.Config.Seed + int64(e.nextID),
			}, name)
			if err != nil {
				return err
			}
			e.store(&StoredSample{
				Name: name, Source: table, QCS: append([]string(nil), qcs...),
				Cap: cap, Data: res.Table, Rows: res.SampleRows,
				BuildVersion: res.BuildVersion, BuildRows: res.SourceRows,
				BuildCostRows: res.SourceRows,
				Profile:       make(map[string]float64),
			})
		}
	}
	for _, rate := range e.Config.UniformRates {
		name := e.sampleName(table)
		res, err := sample.BuildUniformTable(t, rate, e.Config.Seed+int64(e.nextID), name)
		if err != nil {
			return err
		}
		e.store(&StoredSample{
			Name: name, Source: table, Rate: rate, Data: res.Table,
			Rows: res.SampleRows, BuildVersion: res.BuildVersion,
			BuildRows: res.SourceRows, BuildCostRows: res.SourceRows,
			Profile: make(map[string]float64),
		})
	}
	e.Maintenance.WallTime += time.Since(start)
	return nil
}

func (e *OfflineEngine) sampleName(table string) string {
	e.nextID++
	return fmt.Sprintf("%s__sample%d", table, e.nextID)
}

func (e *OfflineEngine) store(s *StoredSample) {
	e.samples[s.Source] = append(e.samples[s.Source], s)
	e.Maintenance.SamplesBuilt++
	e.Maintenance.RowsScanned += int64(s.BuildCostRows)
}

// Rebuild refreshes every sample of a table against its current contents,
// accumulating maintenance cost.
func (e *OfflineEngine) Rebuild(table string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rebuildLocked(table)
}

// rebuildLocked is Rebuild with e.mu already held for writing.
func (e *OfflineEngine) rebuildLocked(table string) error {
	if err := injectOfflineRebuild.Inject(); err != nil {
		return err
	}
	t, err := e.Catalog.Table(table)
	if err != nil {
		return err
	}
	start := time.Now()
	for _, s := range e.samples[table] {
		if len(s.QCS) > 0 {
			res, err := sample.BuildStratified(t, sample.StratifiedConfig{
				KeyColumns: s.QCS, CapPerStratum: s.Cap, Seed: e.Config.Seed + int64(e.nextID),
			}, s.Name)
			if err != nil {
				return err
			}
			s.Data = res.Table
			s.Rows = res.SampleRows
			s.BuildVersion = res.BuildVersion
			s.BuildRows = res.SourceRows
		} else {
			res, err := sample.BuildUniformTable(t, s.Rate, e.Config.Seed+int64(e.nextID), s.Name)
			if err != nil {
				return err
			}
			s.Data = res.Table
			s.Rows = res.SampleRows
			s.BuildVersion = res.BuildVersion
			s.BuildRows = res.SourceRows
		}
		e.nextID++
		e.Maintenance.RowsScanned += int64(t.NumRows())
		// Profiles refer to the old data distribution; conservatively
		// keep them (they were built from the template shapes, which
		// survive a rebuild).
	}
	e.Maintenance.Rebuilds++
	e.Maintenance.WallTime += time.Since(start)
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
// comparing with the exact answer, and records the realized maximum
// relative error. Call this offline with representative workload queries
// to build the error–latency profile.
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
	exactRes, err := NewExactEngine(e.Catalog).Execute(stmt, DefaultErrorSpec)
	if err != nil {
		return err
	}
	qcs := e.queryQCS(stmt)
	key := profileKey(table, qcs)
	for _, s := range cands {
		if !e.applicable(s, stmt, qcs) {
			continue
		}
		raw, err := e.executeOn(context.Background(), s, stmt)
		if err != nil {
			continue
		}
		approx := annotate(stmt, raw, DefaultErrorSpec, TechniqueOffline, GuaranteeNone)
		relErr, comparable := maxRelError(exactRes, approx)
		if !comparable {
			relErr = 1
		}
		e.mu.Lock()
		if prev, ok := s.Profile[key]; !ok || relErr > prev {
			s.Profile[key] = relErr
		}
		e.mu.Unlock()
	}
	return nil
}

// ProfileTemplates profiles n instances of each (template, instantiator)
// pair. rng drives template parameter draws.
func (e *OfflineEngine) ProfileTemplates(instantiate []func(*rand.Rand) string, n int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, gen := range instantiate {
		for i := 0; i < n; i++ {
			if err := e.ProfileQuery(gen(rng)); err != nil {
				return err
			}
		}
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

// executeOn runs the statement with the sample substituted for the fact
// table via a shadow catalog.
func (e *OfflineEngine) executeOn(ctx context.Context, s *StoredSample, stmt *sqlparse.SelectStmt) (*exec.Result, error) {
	// Rebuild swaps the sample's Data table wholesale; read the pointer
	// under the lock and scan whichever build we got (each build is
	// immutable once materialized).
	e.mu.RLock()
	data := s.Data
	e.mu.RUnlock()
	shadow := storage.NewCatalog()
	for _, name := range e.Catalog.Names() {
		if name == s.Source {
			continue
		}
		t, err := e.Catalog.Table(name)
		if err != nil {
			return nil, err
		}
		if err := shadow.AddAs(name, t); err != nil {
			return nil, err
		}
	}
	if err := shadow.AddAs(s.Source, data); err != nil {
		return nil, err
	}
	p, err := plan.Build(stmt, shadow)
	if err != nil {
		return nil, err
	}
	return exec.RunParallelContext(ctx, p, resolveWorkers(ctx, p, e.Config.Workers))
}

// Execute implements Engine: pick the cheapest fresh sample certified for
// the spec, else fall back per configuration.
func (e *OfflineEngine) Execute(stmt *sqlparse.SelectStmt, spec ErrorSpec) (*Result, error) {
	return e.ExecuteContext(context.Background(), stmt, spec)
}

// offlineCand is one certified candidate with the facts captured under
// the registry lock, so later reporting needs no further locking.
type offlineCand struct {
	s     *StoredSample
	stale bool
	rows  int
	name  string
	prof  float64
}

// selectSample picks the cheapest applicable, profiled candidate under
// the registry lock. wantRebuild reports that a stale candidate was seen
// under the StaleRebuild policy (the caller rebuilds and reselects).
func (e *OfflineEngine) selectSample(stmt *sqlparse.SelectStmt, spec ErrorSpec,
	table string, qcs []string, key string) (best *offlineCand, wantRebuild bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, s := range e.samples[table] {
		if !e.applicable(s, stmt, qcs) {
			continue
		}
		prof, profiled := s.Profile[key]
		if !profiled || prof*e.Config.SafetyFactor > spec.RelError {
			continue
		}
		stale := !s.Fresh(e.Catalog)
		if stale {
			switch e.Config.StalePolicy {
			case StaleFallbackExact:
				continue
			case StaleRebuild:
				wantRebuild = true
				continue
			case StaleServe:
				// Serve anyway, downgraded guarantee below.
			}
		}
		if best == nil || s.Rows < best.rows {
			best = &offlineCand{s: s, stale: stale, rows: s.Rows, name: s.Name, prof: prof}
		}
	}
	return best, wantRebuild
}

// ExecuteContext is Execute under a context: the sample scan (and any
// exact fallback) observes cancellation and deadlines.
func (e *OfflineEngine) ExecuteContext(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec) (_ *Result, err error) {
	defer contain(&err)
	if err := injectOffline.Inject(); err != nil {
		return nil, err
	}
	start := time.Now()
	esp, ctx := trace.StartSpan(ctx, "engine offline")
	defer esp.End()
	if !spec.Valid() {
		spec = DefaultErrorSpec
	}
	fallback := func(reason string, stale bool) (*Result, error) {
		res, err := (&ExactEngine{Catalog: e.Catalog, Workers: e.Config.Workers}).fallBack(ctx, stmt, spec, "offline: "+reason)
		if err != nil {
			return nil, err
		}
		res.Diagnostics.Stale = stale
		res.Diagnostics.Latency = time.Since(start)
		return res, nil
	}

	if ok, reason := supportedForSampling(stmt); !ok {
		return fallback("fell back to exact: "+reason, false)
	}
	table := stmt.From.Name
	if len(e.Samples(table)) == 0 {
		return fallback("no samples for table "+table, false)
	}
	qcs := e.queryQCS(stmt)
	key := profileKey(table, qcs)

	// Certified candidates: applicable, fresh (or policy-permitted), and
	// profiled under the spec with the safety factor.
	selsp, _ := trace.StartSpan(ctx, "select-sample")
	best, wantRebuild := e.selectSample(stmt, spec, table, qcs, key)
	if wantRebuild {
		// The maintenance cost the paper highlights, paid inline: refresh
		// the whole table's ladder, then select again (nothing stale now).
		selsp.SetAttr("rebuild", "true")
		// Rebuilds hit storage and can fail transiently; retry with
		// jittered exponential backoff before giving up on the query.
		rerr := fault.Retry(ctx, fault.RetryConfig{
			Tries: e.Config.RebuildRetries,
			Base:  e.Config.RebuildBackoff,
			Seed:  e.Config.Seed,
		}, func() error { return e.Rebuild(table) })
		if rerr != nil {
			selsp.End()
			return nil, rerr
		}
		best, _ = e.selectSample(stmt, spec, table, qcs, key)
	}
	if best != nil {
		selsp.SetAttr("sample", best.name)
		selsp.SetAttrInt("sample_rows", int64(best.rows))
		selsp.SetAttrFloat("profiled_err", best.prof)
	}
	selsp.End()
	if best == nil {
		return fallback("no certified sample for spec (unpredicted QCS, too-tight spec, or stale samples)", false)
	}

	raw, err := e.executeOn(ctx, best.s, stmt)
	if err != nil {
		return nil, err
	}
	asp, _ := trace.StartSpan(ctx, "estimate")
	guarantee := GuaranteeAPriori
	if best.stale {
		guarantee = GuaranteeNone
	}
	out := annotate(stmt, raw, spec, TechniqueOffline, guarantee)
	asp.End()
	out.Diagnostics.Stale = best.stale
	out.Diagnostics.Latency = time.Since(start)
	out.Diagnostics.Workers = exec.ResolveWorkers(ctx, e.Config.Workers)
	if t, err := e.Catalog.Table(table); err == nil && t.NumRows() > 0 {
		out.Diagnostics.SampleFraction = float64(best.rows) / float64(t.NumRows())
	}
	// Lineage: current snapshot plus the stored sample's build watermark,
	// so audits can tell "sample predates these rows" from "estimator bad".
	stampLineage(&out.Diagnostics, e.Catalog, table)
	out.Diagnostics.Lineage.SampleName = best.name
	out.Diagnostics.Lineage.BuildVersion = best.s.BuildVersion
	out.Diagnostics.Lineage.BuildRows = best.s.BuildRows
	out.Diagnostics.Messages = append(out.Diagnostics.Messages,
		fmt.Sprintf("offline: answered from sample %s (%d rows, profiled err %.4f)",
			best.name, best.rows, best.prof))
	return out, nil
}

// maxRelError compares two results row-by-row on aggregate items,
// returning the maximum relative error. comparable is false when shapes
// differ (e.g. missing groups — itself an error mode).
func maxRelError(exact, approx *Result) (float64, bool) {
	if exact.NumRows() == 0 {
		return 0, approx.NumRows() == 0
	}
	if exact.NumRows() != approx.NumRows() {
		return 1, false
	}
	var m float64
	for i := range exact.Rows {
		for j := range exact.Rows[i] {
			it := exact.Items[i][j]
			if !it.IsAggregate {
				continue
			}
			ev := exact.Float(i, j)
			av := approx.Float(i, j)
			var rel float64
			switch {
			case ev == 0 && av == 0:
				rel = 0
			case ev == 0:
				rel = 1
			default:
				rel = abs(av-ev) / abs(ev)
			}
			if rel > m {
				m = rel
			}
		}
	}
	return m, true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
