// Package aqp is the public API of this repository: an embeddable
// approximate-query-processing framework reproducing the design space of
// "Approximate Query Processing: No Silver Bullet" (SIGMOD 2017).
//
// A DB wraps an in-memory columnar catalog and four interchangeable query
// engines — exact, online sampling (Quickr-style), offline precomputed
// samples (BlinkDB-style), and online aggregation — plus precomputed
// synopses (histograms, Count-Min, HyperLogLog) and an advisor that picks
// a technique per query and reports the statistical strength of each
// answer. See DESIGN.md for the system inventory and EXPERIMENTS.md for
// the reproduced experiments.
//
// Quickstart:
//
//	db := aqp.New()
//	tbl, _ := db.CreateTable("t", aqp.Schema{
//		{Name: "x", Type: aqp.TypeFloat64},
//	})
//	tbl.AppendRow(aqp.Float64(3.14))
//	res, _ := db.Query("SELECT COUNT(*), AVG(x) FROM t")
//	approx, _ := db.QueryApprox("SELECT SUM(x) FROM t WITH ERROR 5% CONFIDENCE 95%")
//
// The technique is a per-query choice, spelled as a Request: RunSQL (or
// Run, for a parsed statement) takes the mode, the accuracy target, an
// a-priori contract and an OLA checkpoint observer, e.g.
//
//	ola, _ := db.RunSQL(ctx, "SELECT AVG(x) FROM t", aqp.Request{
//		Mode: aqp.ModeOLA, Observe: func(p aqp.Progress) bool { return true },
//	})
package aqp

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/plan"
	"repro/internal/shard"
	"repro/internal/sqlparse"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/trace"
)

// Re-exported substrate types, so downstream users rarely need internal
// packages.
type (
	// Type is a column type.
	Type = storage.Type
	// Value is a dynamically typed scalar.
	Value = storage.Value
	// Schema is an ordered list of column definitions.
	Schema = storage.Schema
	// ColumnDef describes one column.
	ColumnDef = storage.ColumnDef
	// Table is an append-only columnar table.
	Table = storage.Table
	// Catalog is a named collection of tables.
	Catalog = storage.Catalog
	// ErrorSpec is the (relative error, confidence) accuracy contract.
	ErrorSpec = core.ErrorSpec
	// Result is an annotated query result.
	Result = core.Result
	// ItemResult annotates one output value with its CI.
	ItemResult = core.ItemResult
	// Technique tags the engine that answered.
	Technique = core.Technique
	// Guarantee grades the statistical strength of an answer.
	Guarantee = core.Guarantee
	// Decision explains an advisor routing choice.
	Decision = core.Decision
	// Interval is a confidence interval.
	Interval = stats.Interval
	// Progress is an online-aggregation checkpoint.
	Progress = core.Progress
	// OnlineConfig tunes the query-time sampling engine.
	OnlineConfig = core.OnlineConfig
	// OfflineConfig tunes offline sample construction.
	OfflineConfig = core.OfflineConfig
	// OLAConfig tunes online aggregation.
	OLAConfig = core.OLAConfig
	// ContractConfig tunes two-stage a-priori error-contract execution.
	ContractConfig = core.ContractConfig
	// ContractSummary records a contract execution's pilot sizing, cost,
	// and verdict (Result.Diagnostics.Contract).
	ContractSummary = contract.Summary
	// ContractVerdict is the met/missed/infeasible outcome of a contract.
	ContractVerdict = contract.Verdict
	// Profile is a structured per-query execution profile (span tree).
	Profile = trace.Profile
	// ShardKey declares how a table is partitioned into shards.
	ShardKey = shard.Key
	// ShardGroup is a sharded view over a table.
	ShardGroup = shard.Group
	// ShardHealth is one shard's liveness summary.
	ShardHealth = shard.Health
	// RemoteShardOptions tunes the robustness envelope (deadlines, health
	// probing) around remote-shard RPC calls.
	RemoteShardOptions = shard.RemoteOptions
)

// Shard key kinds.
const (
	// ShardHash spreads rows uniformly by key hash (lost shards can be
	// extrapolated over).
	ShardHash = shard.KeyHash
	// ShardRange holds contiguous key ranges per shard (range predicates
	// prune shards; lost shards are a systematic gap).
	ShardRange = shard.KeyRange
)

// ParseShardKind parses a shard-kind name: "hash" (or "") or "range".
func ParseShardKind(s string) (shard.KeyKind, error) { return shard.ParseKeyKind(s) }

// Contract verdicts and the refusal flag.
const (
	// ContractMet: stage two ran at the sized fraction and the realized
	// error is at or below the target.
	ContractMet = contract.VerdictMet
	// ContractMissed: the realized error exceeded the target, or the run
	// degraded mid-flight.
	ContractMissed = contract.VerdictMissed
	// ContractInfeasible: the target is provably unreachable within the
	// admission budget; the answer is best-effort a-posteriori.
	ContractInfeasible = contract.VerdictInfeasible
	// ContractInfeasibleFlag is the diagnostics message token attached to
	// refused contracts.
	ContractInfeasibleFlag = contract.InfeasibleFlag
)

// Column types.
const (
	TypeInt64   = storage.TypeInt64
	TypeFloat64 = storage.TypeFloat64
	TypeString  = storage.TypeString
	TypeBool    = storage.TypeBool
)

// Guarantee levels.
const (
	GuaranteeExact       = core.GuaranteeExact
	GuaranteeAPriori     = core.GuaranteeAPriori
	GuaranteeAPosteriori = core.GuaranteeAPosteriori
	GuaranteeNone        = core.GuaranteeNone
)

// Techniques.
const (
	TechniqueExact    = core.TechniqueExact
	TechniqueOnline   = core.TechniqueOnline
	TechniqueOffline  = core.TechniqueOffline
	TechniqueOLA      = core.TechniqueOLA
	TechniqueSynopsis = core.TechniqueSynopsis
)

// Value constructors.
var (
	// Int64 wraps an int64 value.
	Int64 = storage.Int64
	// Float64 wraps a float64 value.
	Float64 = storage.Float64
	// Str wraps a string value.
	Str = storage.Str
	// Bool wraps a bool value.
	Bool = storage.Bool
	// Null returns a typed NULL.
	Null = storage.NullValue
	// DefaultErrorSpec is 5% error at 95% confidence.
	DefaultErrorSpec = core.DefaultErrorSpec
)

// Typed error taxonomy re-exports: every error escaping an engine is
// classified against these sentinels (test with errors.Is), so callers
// can map failure classes without importing internal packages.
var (
	// ErrTimeout classifies deadline expiry.
	ErrTimeout = core.ErrTimeout
	// ErrOverloaded classifies admission-control shedding.
	ErrOverloaded = core.ErrOverloaded
	// ErrEngineUnavailable classifies an engine that cannot currently serve.
	ErrEngineUnavailable = core.ErrEngineUnavailable
	// ErrQueryPanic classifies a panic recovered while executing one query.
	ErrQueryPanic = core.ErrQueryPanic
)

// Option configures a DB.
type Option func(*DB)

// WithOnlineConfig overrides the online engine configuration.
func WithOnlineConfig(cfg OnlineConfig) Option {
	return func(db *DB) { db.onlineCfg = cfg }
}

// WithOfflineConfig overrides the offline engine configuration.
func WithOfflineConfig(cfg OfflineConfig) Option {
	return func(db *DB) { db.offlineCfg = cfg }
}

// WithOLAConfig overrides the online-aggregation configuration.
func WithOLAConfig(cfg OLAConfig) Option {
	return func(db *DB) { db.olaCfg = cfg }
}

// WithContractConfig overrides the two-stage contract configuration
// (pilot fraction, admission budget, variance confidence).
func WithContractConfig(cfg ContractConfig) Option {
	return func(db *DB) { db.contractCfg = cfg }
}

// ContextWithWorkers returns ctx carrying the morsel-parallel worker count
// every query run under it uses, in every mode; n ≤ 0 (or no call) leaves
// it to runtime.GOMAXPROCS, and 1 forces serial execution. Results are
// bit-identical regardless of the worker count.
func ContextWithWorkers(ctx context.Context, n int) context.Context {
	return exec.ContextWithWorkers(ctx, n)
}

// DB is the top-level handle: a catalog plus the engine suite.
type DB struct {
	catalog     *storage.Catalog
	onlineCfg   OnlineConfig
	offlineCfg  OfflineConfig
	olaCfg      OLAConfig
	contractCfg ContractConfig

	exact    *core.ExactEngine
	online   *core.OnlineEngine
	offline  *core.OfflineEngine
	ola      *core.OLAEngine
	synopsis *core.SynopsisEngine
	advisor  *core.Advisor
	shards   *shard.Map
}

// New creates an empty database.
func New(opts ...Option) *DB {
	return Open(storage.NewCatalog(), opts...)
}

// Open wraps an existing catalog (e.g. one produced by a workload
// generator).
func Open(cat *storage.Catalog, opts ...Option) *DB {
	db := &DB{
		catalog:     cat,
		onlineCfg:   core.DefaultOnlineConfig(),
		offlineCfg:  core.DefaultOfflineConfig(),
		olaCfg:      core.DefaultOLAConfig(),
		contractCfg: core.DefaultContractConfig(),
	}
	for _, o := range opts {
		o(db)
	}
	db.shards = shard.NewMap()
	db.exact = core.NewExactEngine(cat)
	db.exact.Shards = db.shards
	db.online = core.NewOnlineEngine(cat, db.onlineCfg)
	db.online.Shards = db.shards
	db.offline = core.NewOfflineEngine(cat, db.offlineCfg)
	db.ola = core.NewOLAEngine(cat, db.olaCfg)
	db.synopsis = core.NewSynopsisEngine(cat)
	db.online.Synopses = db.synopsis
	db.advisor = core.NewAdvisor(db.exact, db.online, db.offline, db.ola, db.synopsis)
	return db
}

// Catalog returns the underlying catalog.
func (db *DB) Catalog() *storage.Catalog { return db.catalog }

// CreateTable creates and registers an empty table. Every column needs a
// name of its own: an empty or repeated one could never be referenced.
func (db *DB) CreateTable(name string, schema Schema) (*Table, error) {
	for i, c := range schema {
		if c.Name == "" || schema.ColumnIndex(c.Name) != i {
			return nil, fmt.Errorf("aqp: table %s: column %d name %q is empty or repeated", name, i+1, c.Name)
		}
	}
	t := storage.NewTable(name, schema)
	if err := db.catalog.Add(t); err != nil {
		return nil, err
	}
	return t, nil
}

// Table looks up a registered table.
func (db *DB) Table(name string) (*Table, error) { return db.catalog.Table(name) }

// ShardTable partitions a registered table into independent shards by the
// declared key. Single-table aggregate queries over it then execute
// scatter-gather: every shard computes its own partial estimate (with an
// independently seeded sample under approximate engines) and the partials
// compose into one stratified answer. The base table remains the ingest
// surface — new rows are routed to shards before every query. With
// key.Count == 1 execution is bit-identical to the unsharded engine.
func (db *DB) ShardTable(name string, key ShardKey) (*ShardGroup, error) {
	t, err := db.catalog.Table(name)
	if err != nil {
		return nil, err
	}
	g, err := shard.Partition(t, key, fault.BreakerConfig{})
	if err != nil {
		return nil, err
	}
	if err := db.shards.Add(g); err != nil {
		return nil, err
	}
	return g, nil
}

// AttachRemoteShards registers a sharded view whose shards live in other
// processes, one per address, reached over the shard wire protocol. The
// base table stays local as the planning surface and ground-truth row
// source; estimates scatter over the remote shard servers with the full
// robustness envelope (per-call deadlines, seeded retries, breakers,
// background health probes). Each address must be serving the matching
// partition at attach time — an unreachable shard fails the attach loudly
// rather than degrading silently later.
// Remote groups are static: Sync is a no-op, so the partition files on
// the servers must already agree with the declared key.
func (db *DB) AttachRemoteShards(name string, key ShardKey, addrs []string, opt RemoteShardOptions) (*ShardGroup, error) {
	t, err := db.catalog.Table(name)
	if err != nil {
		return nil, err
	}
	g, err := shard.AttachRemote(t, key, addrs, opt, fault.BreakerConfig{})
	if err != nil {
		return nil, err
	}
	if err := db.shards.Add(g); err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

// Shards returns the registry of sharded tables (nil-safe, possibly empty).
func (db *DB) Shards() *shard.Map { return db.shards }

// Close releases background resources: remote-shard health probers and
// open RPC connections. Safe on a DB with no remote shards.
func (db *DB) Close() { db.shards.Close() }

// QueryProfile collects a per-query execution profile. Obtain one with
// WithProfile, run any query under the returned context, then read the
// span tree via Profile or the pretty rendering via String.
type QueryProfile struct {
	tr *trace.Tracer
}

// WithProfile returns a context that records a span trace for queries run
// under it, plus the handle to read the profile afterwards. Tracing is
// observational only: results are bit-identical with and without it.
func WithProfile(ctx context.Context) (context.Context, *QueryProfile) {
	tr := trace.New("query")
	return trace.WithTracer(ctx, tr), &QueryProfile{tr: tr}
}

// Profile snapshots the recorded span tree (nil before any query ran
// anything; safe to call multiple times).
func (p *QueryProfile) Profile() *Profile { return p.tr.Profile() }

// String renders the profile as an indented tree.
func (p *QueryProfile) String() string { return p.tr.Profile().String() }

// Mode names an execution mode: which engine answers, or how one is picked.
type Mode string

// Execution modes. The zero Mode is ModeAuto.
const (
	// ModeAuto routes through the advisor: offline samples when a
	// certified fresh sample exists, synopses for their narrow class,
	// online sampling otherwise, exact when nothing else is defensible.
	ModeAuto Mode = "auto"
	// ModeExact executes exactly, ignoring any TABLESAMPLE clause.
	ModeExact Mode = "exact"
	// ModeOnline and ModeOffline force query-time sampling and the
	// precomputed offline samples.
	ModeOnline  Mode = "online"
	ModeOffline Mode = "offline"
	// ModeOLA forces online aggregation, where an expired deadline is a
	// stopping rule, not an error: the best progressive estimate so far
	// comes back with its a-posteriori interval.
	ModeOLA Mode = "ola"
	// ModeSynopsis answers from precomputed synopses alone (histogram, HLL,
	// CMS); queries outside that narrow class fail rather than fall back.
	ModeSynopsis Mode = "synopsis"
	// ModeAsWritten honors the SQL's TABLESAMPLE clauses verbatim — the
	// manual path for users who place their own samplers.
	ModeAsWritten Mode = "as-written"
)

// Modes lists every execution mode; validation, per-mode breakers and
// listings derive from it.
var Modes = []Mode{ModeAuto, ModeExact, ModeOnline, ModeOffline, ModeOLA, ModeSynopsis, ModeAsWritten}

// ParseMode resolves a mode name; "" is ModeAuto.
func ParseMode(s string) (Mode, error) {
	if s == "" {
		return ModeAuto, nil
	}
	names := make([]string, len(Modes))
	for i, m := range Modes {
		if string(m) == s {
			return m, nil
		}
		names[i] = string(m)
	}
	last := len(names) - 1
	return "", fmt.Errorf("unknown mode %q (want %s, or %s)", s, strings.Join(names[:last], ", "), names[last])
}

// Request says how Run executes a statement: every per-query choice of
// technique is a field here, not a method of its own.
type Request struct {
	Mode Mode
	// Spec is the accuracy target when the SQL carries no `WITH ERROR e%
	// CONFIDENCE c%` clause — the clause wins. Zero is DefaultErrorSpec.
	Spec ErrorSpec
	// Contract makes the target an a-priori promise: a pilot run sizes the
	// stage-two sampling fraction that lands the realized CI at or below
	// it, stage two runs at that fraction, and Diagnostics.Contract records
	// the sizing and the met/missed/infeasible verdict. Targets provably
	// unreachable within the admission budget are refused honestly — a
	// best-effort a-posteriori CI flagged ContractInfeasibleFlag. Only the
	// sampling engines size contracts: ModeOnline (which ModeAuto takes),
	// ModeOLA (two prefixes of one seeded permutation) and ModeOffline
	// (two transient uniform samples of the base table). ModeExact,
	// ModeSynopsis and ModeAsWritten refuse a contract by name.
	Contract bool
	// Observe, under ModeOLA, sees every progressive checkpoint; returning
	// false stops the stream.
	Observe func(Progress) bool
}

// Run executes a parsed statement: the façade's one query door, behind
// RunSQL, every Query* method and the server. It resolves the accuracy
// target, peels EXPLAIN (the optimized plan as rows, nothing executed)
// and EXPLAIN ANALYZE (the query runs under a tracer — a caller-installed
// one is reused — and the rendered profile comes back carrying the
// executed query's technique, guarantee and diagnostics), dispatches to
// the engine, and stamps the statement's fingerprint so results, audits,
// logs and the workload registry share one shape identity. The statement
// is only read: callers may hand it to concurrent Runs and observers.
func (db *DB) Run(ctx context.Context, stmt *sqlparse.SelectStmt, req Request) (*Result, error) {
	if stmt.Explain && !stmt.Analyze {
		p, err := plan.Build(stmt, db.catalog)
		if err != nil {
			return nil, err
		}
		return textResult("plan", plan.Explain(p)), nil
	}
	var sp *trace.Span // EXPLAIN ANALYZE's query span
	if stmt.Analyze {
		if sp, ctx = trace.StartSpan(ctx, "query"); sp == nil {
			// No caller-installed tracer: make one rooted at this query.
			tr := trace.New("query")
			sp, ctx = tr.Root(), trace.WithTracer(ctx, tr)
		}
	}
	res, err := db.dispatch(ctx, stmt, core.ResolveSpec(stmt, req.Spec), req)
	sp.End()
	if err != nil {
		return nil, err
	}
	res.Diagnostics.Fingerprint = stmt.Fingerprint().Hash
	if !stmt.Analyze {
		return res, nil
	}
	out := textResult("explain analyze", sp.Snapshot().String())
	out.Technique, out.Guarantee, out.Spec, out.Diagnostics = res.Technique, res.Guarantee, res.Spec, res.Diagnostics
	return out, nil
}

// dispatch is the engine switch. It is the one place that knows which
// modes can size a contract: the others are refused by name before any
// engine runs.
func (db *DB) dispatch(ctx context.Context, stmt *sqlparse.SelectStmt, spec ErrorSpec, req Request) (*Result, error) {
	if req.Contract && (req.Mode == ModeExact || req.Mode == ModeSynopsis || req.Mode == ModeAsWritten) {
		return nil, fmt.Errorf("aqp: mode %s does not support error contracts (auto, online, offline and ola do)", req.Mode)
	}
	var eng core.Engine
	switch req.Mode {
	case ModeAuto, "":
		if !req.Contract {
			res, dec, err := db.advisor.Execute(ctx, stmt, spec)
			if err != nil {
				return nil, err
			}
			res.Diagnostics.Messages = append(res.Diagnostics.Messages, "advisor: "+dec.Reason)
			return res, nil
		}
		eng = db.online
	case ModeExact:
		eng = db.exact
	case ModeOnline:
		eng = db.online
	case ModeOffline:
		eng = db.offline
	case ModeOLA:
		if !req.Contract {
			return db.ola.ExecuteProgressive(ctx, stmt, spec, req.Observe)
		}
		eng = db.ola
	case ModeSynopsis:
		eng = db.synopsis
	case ModeAsWritten:
		return db.exact.ExecuteAsWritten(ctx, stmt, spec)
	default:
		return nil, fmt.Errorf("unknown mode %q", req.Mode)
	}
	if !req.Contract {
		return eng.Execute(ctx, stmt, spec)
	}
	return core.ExecuteContract(ctx, eng, stmt, spec, db.contractCfg)
}

// textResult wraps pre-rendered text as a single-column result, one line
// per row.
func textResult(col, text string) *Result {
	r := &Result{Columns: []string{col}}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		r.Rows = append(r.Rows, []storage.Value{storage.Str(line)})
		r.Items = append(r.Items, []ItemResult{{Name: col, Value: storage.Str(line)}})
	}
	return r
}

// RunSQL parses sql and Runs it: the SQL-text form of Run, and the door to
// every mode for code outside this module.
func (db *DB) RunSQL(ctx context.Context, sql string, req Request) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.Run(ctx, stmt, req)
}

// specArg unpacks an optional trailing ErrorSpec argument.
func specArg(spec []ErrorSpec) ErrorSpec {
	if len(spec) > 0 {
		return spec[0]
	}
	return ErrorSpec{}
}

// Query executes a query exactly.
func (db *DB) Query(sql string) (*Result, error) {
	return db.QueryContext(context.Background(), sql)
}

// QueryContext is Query under a context: scans observe cancellation and
// deadlines, returning ctx.Err() when exceeded.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Result, error) {
	return db.RunSQL(ctx, sql, Request{Mode: ModeExact})
}

// QueryApprox routes a query through the advisor (ModeAuto). A `WITH
// ERROR e% CONFIDENCE c%` clause in the SQL overrides spec, here and in
// every other mode.
func (db *DB) QueryApprox(sql string, spec ...ErrorSpec) (*Result, error) {
	return db.RunSQL(context.Background(), sql, Request{Mode: ModeAuto, Spec: specArg(spec)})
}

// Advise explains which technique the advisor would use, without running
// the query.
func (db *DB) Advise(sql string, spec ...ErrorSpec) (Decision, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return Decision{}, err
	}
	return db.advisor.Choose(stmt, core.ResolveSpec(stmt, specArg(spec))), nil
}

// QueryOnlineContext forces the query-time-sampling engine (ModeOnline).
func (db *DB) QueryOnlineContext(ctx context.Context, sql string, spec ErrorSpec) (*Result, error) {
	return db.RunSQL(ctx, sql, Request{Mode: ModeOnline, Spec: spec})
}

// QueryOfflineContext forces the offline-samples engine (ModeOffline).
func (db *DB) QueryOfflineContext(ctx context.Context, sql string, spec ErrorSpec) (*Result, error) {
	return db.RunSQL(ctx, sql, Request{Mode: ModeOffline, Spec: spec})
}

// QueryOLAContext runs online aggregation (ModeOLA) to completion (or
// early stop per config), ignoring intermediate checkpoints.
func (db *DB) QueryOLAContext(ctx context.Context, sql string, spec ErrorSpec) (*Result, error) {
	return db.RunSQL(ctx, sql, Request{Mode: ModeOLA, Spec: spec})
}

// BuildOfflineSamples materializes the offline sample ladder for a table
// over the given query column sets (the precomputation step).
func (db *DB) BuildOfflineSamples(table string, qcsList [][]string) error {
	return db.offline.BuildSamples(table, qcsList)
}

// ProfileOffline runs profiling queries to build the error–latency
// profile that certifies offline samples against error specs.
func (db *DB) ProfileOffline(sqls ...string) error {
	for _, q := range sqls {
		if err := db.offline.ProfileQuery(q); err != nil {
			return err
		}
	}
	return nil
}

// RebuildOfflineSamples refreshes a table's samples after updates,
// accumulating maintenance cost.
func (db *DB) RebuildOfflineSamples(table string) error { return db.offline.Rebuild(table) }

// OfflineEngine exposes the offline engine for advanced inspection
// (maintenance stats, stored samples).
func (db *DB) OfflineEngine() *core.OfflineEngine { return db.offline }

// BuildSynopsis builds histogram/HLL/CMS synopses for a column.
func (db *DB) BuildSynopsis(table, column string) error {
	return db.synopsis.BuildColumn(table, column, 0)
}

// PropertyMatrix measures the no-silver-bullet matrix over probe queries.
func (db *DB) PropertyMatrix(probe []string, spec ErrorSpec) ([]core.TechniqueProperties, error) {
	return db.advisor.Matrix(probe, spec)
}

// FormatResult renders a result as an aligned text table with CI
// annotations for approximate aggregates.
func FormatResult(r *Result) string {
	out := ""
	for _, c := range r.Columns {
		out += fmt.Sprintf("%-22s", c)
	}
	out += "\n"
	for i, row := range r.Rows {
		for j, v := range row {
			cell := v.String()
			if j < len(r.Items[i]) {
				it := r.Items[i][j]
				if it.HasCI && it.CI.Width() > 0 {
					cell += fmt.Sprintf(" ±%.3g", it.CI.HalfWidth())
				}
			}
			out += fmt.Sprintf("%-22s", cell)
		}
		out += "\n"
	}
	out += fmt.Sprintf("-- technique=%s guarantee=%s rows_scanned=%d sample_fraction=%.4f latency=%s\n",
		r.Technique, r.Guarantee, r.Diagnostics.Counters.RowsScanned,
		r.Diagnostics.SampleFraction, r.Diagnostics.Latency)
	// Shard line only for sharded executions: zero-shard output is
	// byte-identical to what this function produced before sharding.
	if sh := r.Diagnostics.Shards; sh != nil {
		out += fmt.Sprintf("-- shards=%d key=%s coverage=%.4f degraded=%d pruned=%d extrapolated=%v\n",
			sh.Count, sh.Key, sh.CoverageFraction, len(sh.Degraded), len(sh.Pruned), sh.Extrapolated)
	}
	// Contract line only for contract executions: ordinary output is
	// byte-identical to what this function produced before contracts.
	if c := r.Diagnostics.Contract; c != nil {
		out += fmt.Sprintf("-- contract verdict=%s target=%.4g realized=%.4g pilot=%d rows (%.4g) final=%d rows (%.4g) required=%.4g budget=%.4g\n",
			c.Verdict, c.TargetRelError, c.RealizedRelError,
			c.PilotRows, c.PilotFraction, c.FinalRows, c.FinalFraction,
			c.RequiredFraction, c.BudgetFraction)
	}
	return out
}
