// Package insight is the workload-observability substrate: it
// fingerprints every served query by shape (literal-normalized
// canonical SQL plus query-column-set), keeps a bounded registry of
// per-fingerprint scorecards — rolling latency quantiles, rows scanned,
// realized CI relative width, audit coverage, contract verdicts, and
// degradation/extrapolation counts, broken down per technique — and
// runs regression sentinels that compare each fingerprint's current
// window against its own trailing baseline. The paper's "no silver
// bullet" claim is a claim about workloads, not queries: this registry
// is the per-shape evidence a workload-adaptive advisor needs to learn
// which technique wins where.
package insight

import (
	"sort"
	"sync"
	"time"

	"repro/internal/sqlparse"
	"repro/internal/stats"
)

// Config tunes the registry. Zero values take the stated defaults.
type Config struct {
	// Cap bounds the number of fingerprints retained; the coldest
	// (least-recently-offered) is evicted when a new shape arrives at
	// capacity (default 256, minimum 1).
	Cap int
	// OnEvent, when non-nil, receives sentinel and eviction events. It
	// is called outside the registry lock; callbacks must not re-enter
	// the registry.
	OnEvent func(Event)
}

func (c Config) withDefaults() Config {
	if c.Cap <= 0 {
		c.Cap = 256
	}
	return c
}

const (
	// window is the per-half sentinel window: each fingerprint retains
	// 2*window latency and CI-width observations, the older half being
	// the trailing baseline and the newer half the current window.
	window = 64
	// latencyFactor trips the latency sentinel when the current-window
	// p95 exceeds latencyFactor × baseline p95, and latencyFloorMS is the
	// absolute floor: current p95 must also exceed the baseline by this
	// many milliseconds, so microsecond noise on fast shapes never pages.
	latencyFactor, latencyFloorMS = 2, 1
	// widthFactor and widthFloor are the CI relative-width analogues.
	widthFactor, widthFloor = 2, 0.005
	// coverageFloor is the audited CI coverage below which the coverage
	// sentinel trips, judged by the Wilson upper bound at coverageConfidence
	// so small samples cannot page, and only once minAudits audits are in.
	coverageFloor      = 0.85
	coverageConfidence = 0.95
	minAudits          = 20
)

// Event kinds.
const (
	EventRegression = "regression"
	EventRecovered  = "recovered"
	EventEvicted    = "evicted"
)

// Sentinel signals.
const (
	SignalLatency  = "latency_p95"
	SignalCIWidth  = "ci_width_p95"
	SignalCoverage = "coverage"
)

// Event is one sentinel transition or eviction.
type Event struct {
	Kind        string  `json:"kind"`
	Signal      string  `json:"signal,omitempty"`
	Fingerprint string  `json:"fingerprint"`
	Template    string  `json:"template"`
	Technique   string  `json:"technique,omitempty"`
	Baseline    float64 `json:"baseline,omitempty"`
	Current     float64 `json:"current,omitempty"`
}

// Observation is one served (or failed) query's outcome, attributed to
// the shape it instantiates.
type Observation struct {
	Technique   string
	LatencyMS   float64
	RowsScanned int64
	// RelWidth is the realized maximum relative CI half-width;
	// meaningful only when Approximate.
	RelWidth    float64
	Approximate bool
	Degraded    bool
	// Extrapolated counts shard-loss extrapolation (answer scaled up
	// from surviving shards).
	Extrapolated    bool
	Partial         bool
	ContractVerdict string
	Err             bool
}

// Registry is the bounded per-fingerprint scorecard store. All methods
// are safe for concurrent use.
type Registry struct {
	mu          sync.Mutex
	cfg         Config
	cards       map[string]*card
	offered     uint64
	unparseable uint64
	evictions   uint64
	regressions uint64
}

// card is one fingerprint's live scorecard.
type card struct {
	fp        sqlparse.Fingerprint
	firstSeen time.Time
	lastSeen  time.Time
	stamp     uint64 // the registry's offer count when last touched

	queries      int64
	errors       int64
	rowsScanned  int64
	degraded     int64
	extrapolated int64
	partial      int64
	contract     map[string]int64

	lat   *sentinel
	width *sentinel

	techs map[string]*techCard

	regressions int64
	active      map[string]bool // currently-tripped signals
}

// techCard is the per-(fingerprint, technique) sub-scorecard — the unit
// a learning advisor compares techniques on.
type techCard struct {
	queries      int64
	rowsScanned  int64
	degraded     int64
	extrapolated int64
	contract     map[string]int64
	lat          *stats.RollingQuantiles
	width        *stats.RollingQuantiles
	cov          *stats.RollingCoverage
	covTripped   bool
}

// New builds a registry.
func New(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	return &Registry{
		cfg:   cfg,
		cards: make(map[string]*card, cfg.Cap),
	}
}

// Offer is ObserveStmt for callers that hold only the SQL text.
func (r *Registry) Offer(sql string, obs Observation) string {
	stmt, _ := sqlparse.Parse(sql) // nil when the SQL does not parse
	return r.ObserveStmt(stmt, obs)
}

// ObserveStmt files one query outcome under the statement's fingerprint
// and returns the fingerprint hash. A nil statement — SQL that did not
// parse — is counted and dropped, returning "": fingerprinting is a pure
// observer and must never fail a query.
func (r *Registry) ObserveStmt(stmt *sqlparse.SelectStmt, obs Observation) string {
	if stmt == nil {
		r.mu.Lock()
		r.unparseable++
		r.mu.Unlock()
		return ""
	}
	fp := stmt.Fingerprint()
	var events []Event

	r.mu.Lock()
	r.offered++
	c := r.touch(fp, &events)
	c.lastSeen = time.Now()
	c.queries++
	if obs.Err {
		c.errors++
	}
	c.rowsScanned += obs.RowsScanned
	if obs.Degraded {
		c.degraded++
	}
	if obs.Extrapolated {
		c.extrapolated++
	}
	if obs.Partial {
		c.partial++
	}
	if obs.ContractVerdict != "" {
		c.contract[obs.ContractVerdict]++
	}
	if !obs.Err {
		r.pushSentinel(c, c.lat, SignalLatency, obs.LatencyMS, &events)
		if obs.Approximate {
			r.pushSentinel(c, c.width, SignalCIWidth, obs.RelWidth, &events)
		}
	}
	if obs.Technique != "" {
		t := c.tech(obs.Technique)
		t.queries++
		t.rowsScanned += obs.RowsScanned
		if obs.Degraded {
			t.degraded++
		}
		if obs.Extrapolated {
			t.extrapolated++
		}
		if obs.ContractVerdict != "" {
			t.contract[obs.ContractVerdict]++
		}
		if !obs.Err {
			t.lat.Push(obs.LatencyMS)
			if obs.Approximate {
				t.width.Push(obs.RelWidth)
			}
		}
	}
	r.mu.Unlock()

	r.emit(events)
	return fp.Hash
}

// ReportAudit folds one auditor verdict — the claimed CI covered the
// exact ground truth, or missed it — into the (fingerprint, technique)
// coverage window, and evaluates the Wilson-gated coverage sentinel.
// Unknown fingerprints (evicted since the query was served, or from a
// build that predates stamping) are ignored.
func (r *Registry) ReportAudit(fingerprint, technique string, covered bool) {
	if fingerprint == "" || technique == "" {
		return
	}
	var events []Event

	r.mu.Lock()
	c, ok := r.cards[fingerprint]
	if !ok {
		r.mu.Unlock()
		return
	}
	t := c.tech(technique)
	t.cov.Push(covered)
	iv := t.cov.Wilson(coverageConfidence)
	low := t.cov.N() >= minAudits && iv.Hi < coverageFloor
	if low != t.covTripped {
		t.covTripped = low
		kind := EventRecovered
		if low {
			kind = EventRegression
			c.regressions++
			r.regressions++
		}
		c.active[SignalCoverage+":"+technique] = low
		events = append(events, Event{
			Kind: kind, Signal: SignalCoverage,
			Fingerprint: c.fp.Hash, Template: c.fp.Template,
			Technique: technique,
			Baseline:  coverageFloor, Current: t.cov.Rate(),
		})
	}
	r.mu.Unlock()

	r.emit(events)
}

// touch returns the card for fp, creating (and possibly evicting) as
// needed, and stamps it with the offer count. At capacity the card with
// the smallest stamp — the least recently offered — is evicted. Caller
// holds r.mu.
func (r *Registry) touch(fp sqlparse.Fingerprint, events *[]Event) *card {
	c, ok := r.cards[fp.Hash]
	if !ok {
		if len(r.cards) >= r.cfg.Cap {
			var victim *card
			for _, v := range r.cards {
				if victim == nil || v.stamp < victim.stamp {
					victim = v
				}
			}
			delete(r.cards, victim.fp.Hash)
			r.evictions++
			*events = append(*events, Event{
				Kind:        EventEvicted,
				Fingerprint: victim.fp.Hash,
				Template:    victim.fp.Template,
			})
		}
		c = &card{
			fp:        fp,
			firstSeen: time.Now(),
			contract:  make(map[string]int64),
			lat:       newSentinel(window, latencyFactor, latencyFloorMS),
			width:     newSentinel(window, widthFactor, widthFloor),
			techs:     make(map[string]*techCard),
			active:    make(map[string]bool),
		}
		r.cards[fp.Hash] = c
	}
	c.stamp = r.offered
	return c
}

// pushSentinel records v and translates any sentinel transition into an
// event. Caller holds r.mu.
func (r *Registry) pushSentinel(c *card, s *sentinel, signal string, v float64, events *[]Event) {
	fired, recovered := s.push(v)
	if fired {
		c.regressions++
		r.regressions++
		c.active[signal] = true
		*events = append(*events, Event{
			Kind: EventRegression, Signal: signal,
			Fingerprint: c.fp.Hash, Template: c.fp.Template,
			Baseline: s.baseline, Current: s.current,
		})
	}
	if recovered {
		c.active[signal] = false
		*events = append(*events, Event{
			Kind: EventRecovered, Signal: signal,
			Fingerprint: c.fp.Hash, Template: c.fp.Template,
			Baseline: s.baseline, Current: s.current,
		})
	}
}

func (c *card) tech(name string) *techCard {
	t, ok := c.techs[name]
	if !ok {
		t = &techCard{
			contract: make(map[string]int64),
			lat:      stats.NewRollingQuantiles(window),
			width:    stats.NewRollingQuantiles(window),
			cov:      stats.NewRollingCoverage(window),
		}
		c.techs[name] = t
	}
	return t
}

func (r *Registry) emit(events []Event) {
	if r.cfg.OnEvent == nil {
		return
	}
	for _, ev := range events {
		r.cfg.OnEvent(ev)
	}
}

// Len returns the number of fingerprints currently tracked.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.cards)
}

// Evictions returns the lifetime eviction count.
func (r *Registry) Evictions() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evictions
}

// Regressions returns the lifetime sentinel-trip count.
func (r *Registry) Regressions() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.regressions
}

// TechSnapshot is one (fingerprint, technique) sub-scorecard.
type TechSnapshot struct {
	Technique    string  `json:"technique"`
	Queries      int64   `json:"queries"`
	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP95MS float64 `json:"latency_p95_ms"`
	RelWidthP95  float64 `json:"rel_width_p95,omitempty"`
	RowsScanned  int64   `json:"rows_scanned"`
	Degraded     int64   `json:"degraded,omitempty"`
	Extrapolated int64   `json:"extrapolated,omitempty"`
	// Audited coverage over the rolling window, with its Wilson bounds.
	CoverageN    int              `json:"coverage_n,omitempty"`
	CoverageRate float64          `json:"coverage_rate,omitempty"`
	CoverageLo   float64          `json:"coverage_lo,omitempty"`
	CoverageHi   float64          `json:"coverage_hi,omitempty"`
	Contract     map[string]int64 `json:"contract,omitempty"`
}

// CardSnapshot is one fingerprint's scorecard at a point in time.
type CardSnapshot struct {
	Fingerprint string    `json:"fingerprint"`
	Template    string    `json:"template"`
	Table       string    `json:"table"`
	QCS         []string  `json:"qcs,omitempty"`
	FirstSeen   time.Time `json:"first_seen"`
	LastSeen    time.Time `json:"last_seen"`

	Queries      int64            `json:"queries"`
	Errors       int64            `json:"errors,omitempty"`
	RowsScanned  int64            `json:"rows_scanned"`
	Degraded     int64            `json:"degraded,omitempty"`
	Extrapolated int64            `json:"extrapolated,omitempty"`
	Partial      int64            `json:"partial,omitempty"`
	Contract     map[string]int64 `json:"contract,omitempty"`

	LatencyP50MS float64 `json:"latency_p50_ms"`
	LatencyP95MS float64 `json:"latency_p95_ms"`
	// BaselineLatencyP95MS is the trailing-baseline half's p95 — what
	// the latency sentinel compares the current half against (0 until
	// the sentinel window fills).
	BaselineLatencyP95MS float64 `json:"baseline_latency_p95_ms,omitempty"`
	RelWidthP95          float64 `json:"rel_width_p95,omitempty"`

	Regressions int64    `json:"regressions,omitempty"`
	Active      []string `json:"active_regressions,omitempty"`

	Techniques []TechSnapshot `json:"techniques,omitempty"`
}

// Summary is the registry-level report around a Top listing.
type Summary struct {
	Fingerprints int    `json:"fingerprints"`
	Cap          int    `json:"cap"`
	Offered      uint64 `json:"offered"`
	Unparseable  uint64 `json:"unparseable,omitempty"`
	Evictions    uint64 `json:"evictions,omitempty"`
	Regressions  uint64 `json:"regressions,omitempty"`
}

// Summary returns the registry-level counters.
func (r *Registry) Summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Summary{
		Fingerprints: len(r.cards),
		Cap:          r.cfg.Cap,
		Offered:      r.offered,
		Unparseable:  r.unparseable,
		Evictions:    r.evictions,
		Regressions:  r.regressions,
	}
}

// Top orders. "traffic" (query count), "latency" (current p95), and
// "regressions" (sentinel trips) are accepted; anything else falls back
// to traffic.
const (
	ByTraffic     = "traffic"
	ByLatency     = "latency"
	ByRegressions = "regressions"
)

// Top returns the n highest-ranked scorecards under the given order.
// n <= 0 returns all.
func (r *Registry) Top(n int, by string) []CardSnapshot {
	r.mu.Lock()
	out := make([]CardSnapshot, 0, len(r.cards))
	for _, c := range r.cards {
		out = append(out, c.snapshot())
	}
	r.mu.Unlock()

	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch by {
		case ByLatency:
			if a.LatencyP95MS != b.LatencyP95MS {
				return a.LatencyP95MS > b.LatencyP95MS
			}
		case ByRegressions:
			if a.Regressions != b.Regressions {
				return a.Regressions > b.Regressions
			}
		}
		if a.Queries != b.Queries {
			return a.Queries > b.Queries
		}
		// Full tie: deterministic order by fingerprint.
		return a.Fingerprint < b.Fingerprint
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// snapshot copies the card's state. Caller holds the registry lock.
func (c *card) snapshot() CardSnapshot {
	cs := CardSnapshot{
		Fingerprint:  c.fp.Hash,
		Template:     c.fp.Template,
		Table:        c.fp.Table,
		QCS:          append([]string(nil), c.fp.QCS...),
		FirstSeen:    c.firstSeen,
		LastSeen:     c.lastSeen,
		Queries:      c.queries,
		Errors:       c.errors,
		RowsScanned:  c.rowsScanned,
		Degraded:     c.degraded,
		Extrapolated: c.extrapolated,
		Partial:      c.partial,
		Contract:     copyCounts(c.contract),
		LatencyP50MS: c.lat.quantileAll(0.50),
		LatencyP95MS: c.lat.quantileCurrent(0.95),
		RelWidthP95:  c.width.quantileCurrent(0.95),
		Regressions:  c.regressions,
	}
	if c.lat.full() {
		cs.BaselineLatencyP95MS = c.lat.quantileBaseline(0.95)
	}
	for sig, on := range c.active {
		if on {
			cs.Active = append(cs.Active, sig)
		}
	}
	sort.Strings(cs.Active)
	names := make([]string, 0, len(c.techs))
	for name := range c.techs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := c.techs[name]
		ts := TechSnapshot{
			Technique:    name,
			Queries:      t.queries,
			LatencyP50MS: t.lat.Quantile(0.50),
			LatencyP95MS: t.lat.Quantile(0.95),
			RelWidthP95:  t.width.Quantile(0.95),
			RowsScanned:  t.rowsScanned,
			Degraded:     t.degraded,
			Extrapolated: t.extrapolated,
			Contract:     copyCounts(t.contract),
		}
		if n := t.cov.N(); n > 0 {
			iv := t.cov.Wilson(0.95)
			ts.CoverageN = n
			ts.CoverageRate = t.cov.Rate()
			ts.CoverageLo = iv.Lo
			ts.CoverageHi = iv.Hi
		}
		cs.Techniques = append(cs.Techniques, ts)
	}
	return cs
}

func copyCounts(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
