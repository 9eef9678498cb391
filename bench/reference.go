package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	aqp "repro"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// wireResponse is the part of aqpd's query response the harness reads.
// Rows and Items stay raw: aqpd's encoder is deterministic, so two answers
// are cell-for-cell equal exactly when these bytes are.
type wireResponse struct {
	Rows           json.RawMessage `json:"rows"`
	Items          json.RawMessage `json:"items"`
	Technique      string          `json:"technique"`
	Guarantee      string          `json:"guarantee"`
	Partial        bool            `json:"partial"`
	Degraded       bool            `json:"degraded"`
	LatencyMS      float64         `json:"latency_ms"`
	RowsScanned    int64           `json:"rows_scanned"`
	SampleFraction float64         `json:"sample_fraction"`
	Shards         *struct {
		Count    int   `json:"count"`
		Degraded []int `json:"degraded"`
	} `json:"shards"`
	Trace *trace.Profile `json:"trace"`
}

// requestBody renders the POST /query body for a query.
func requestBody(q query, traced bool) []byte {
	req := server.QueryRequest{SQL: q.SQL, Mode: q.Mode, Trace: traced}
	if q.Mode != "exact" {
		req.RelError, req.Confidence = relError, confidence
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings and numbers always encodes
	}
	return body
}

// checkGuards applies the technique/topology guard to one answer: it must
// come from the technique and shard count the workload asked for, whole
// and undegraded, or the workload has quietly become a different one.
func checkGuards(w workloadSpec, q query, r *wireResponse) error {
	if want := techniqueOf[q.Mode]; r.Technique != want {
		return fmt.Errorf("technique %q, want %q", r.Technique, want)
	}
	if r.Degraded || r.Partial {
		return fmt.Errorf("degraded=%v partial=%v", r.Degraded, r.Partial)
	}
	if r.Guarantee == "" {
		return fmt.Errorf("no guarantee label")
	}
	if w.Topology != "single" {
		if r.Shards == nil {
			return fmt.Errorf("answer bypassed the shards")
		}
		if r.Shards.Count != shardCount || len(r.Shards.Degraded) > 0 {
			return fmt.Errorf("shards count=%d degraded=%v, want %d healthy", r.Shards.Count, r.Shards.Degraded, shardCount)
		}
	}
	return nil
}

// reference is an in-process twin of the workload's topology over the same
// generated data: the library answering through the same HTTP handler,
// without processes, network or concurrency. Sampler seeds are fixed, so
// the real topology must reproduce its answers and CI bounds bit for bit;
// for the remote topology that is the repo's sharded ≡ remote contract.
type reference struct {
	star *workload.Star
	// plain answers unsharded: the ground truth, and the expectation for
	// single-node workloads.
	plain http.Handler
	// twin mirrors the workload's topology (plain itself when unsharded).
	twin http.Handler
	// answers memoizes replies: on a single node a query's expectation and
	// its ground truth are the same scan.
	answers map[answerKey]*wireResponse
}

type answerKey struct {
	twin      bool
	mode, sql string
}

func newReference(w workloadSpec, star *workload.Star, offlineProfile []string) (*reference, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	cfg := server.Config{Workers: serverWorkers, QueueCap: serverQueue, Logger: quiet}
	ref := &reference{star: star, answers: make(map[answerKey]*wireResponse)}
	ref.plain = server.New(aqp.Open(star.Catalog), cfg).Handler()
	ref.twin = ref.plain
	if w.Topology != "single" {
		db := aqp.Open(star.Catalog)
		if _, err := db.ShardTable(shardTable, shardKeySpec()); err != nil {
			return nil, err
		}
		ref.twin = server.New(db, cfg).Handler()
	}
	if len(w.OfflineQCS) > 0 {
		do := func(r *http.Request) (*http.Response, error) {
			rec := httptest.NewRecorder()
			ref.twin.ServeHTTP(rec, r)
			return rec.Result(), nil
		}
		if err := buildSamples(do, "", w.OfflineQCS, offlineProfile); err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
	}
	return ref, nil
}

// post answers q on the twin or the plain handler, once per distinct query.
func (ref *reference) post(twin bool, q query) (*wireResponse, error) {
	h := ref.plain
	if twin {
		h = ref.twin
	}
	key := answerKey{twin: h != ref.plain, mode: q.Mode, sql: q.SQL}
	if r, ok := ref.answers[key]; ok {
		return r, nil
	}
	r, err := postHandler(h, q)
	if err == nil {
		ref.answers[key] = r
	}
	return r, err
}

func postHandler(h http.Handler, q query) (*wireResponse, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(requestBody(q, false))))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	var r wireResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// expectation is what every answer to one query must look like.
type expectation struct {
	rows, items []byte
	guarantee   string
}

func (e *expectation) matches(r *wireResponse) error {
	if !bytes.Equal(r.Rows, e.rows) {
		return fmt.Errorf("rows differ from the in-process reference: got %s want %s", clip(r.Rows), clip(e.rows))
	}
	if !bytes.Equal(r.Items, e.items) {
		return fmt.Errorf("CI bounds differ from the in-process reference: got %s want %s", clip(r.Items), clip(e.items))
	}
	if r.Guarantee != e.guarantee {
		return fmt.Errorf("guarantee %q, want %q", r.Guarantee, e.guarantee)
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 200 {
		return string(b[:200]) + "…"
	}
	return string(b)
}

// expect answers q on the twin and checks that the twin itself passes the
// guards — if it does not, the workload is mis-defined at this size.
func (ref *reference) expect(w workloadSpec, q query) (*expectation, error) {
	r, err := ref.post(true, q)
	if err != nil {
		return nil, fmt.Errorf("reference %s %q: %w", q.Mode, q.SQL, err)
	}
	if err := checkGuards(w, q, r); err != nil {
		return nil, fmt.Errorf("reference %s %q: %w (workload not valid at %d rows)",
			q.Mode, q.SQL, err, ref.star.Lineitem.NumRows())
	}
	return &expectation{rows: r.Rows, items: r.Items, guarantee: r.Guarantee}, nil
}

// truth returns the unsharded exact answer of sql as parsed cells.
func (ref *reference) truth(sql string) (*answer, error) {
	r, err := ref.post(false, query{SQL: sql, Mode: "exact"})
	if err != nil {
		return nil, fmt.Errorf("ground truth %q: %w", sql, err)
	}
	return parseAnswer(r)
}

// answer is a response with its cells and CI annotations parsed.
type answer struct {
	rows  [][]json.RawMessage
	items [][]server.ItemJSON
}

func parseAnswer(r *wireResponse) (*answer, error) {
	a := &answer{}
	if err := json.Unmarshal(r.Rows, &a.rows); err != nil {
		return nil, err
	}
	if len(r.Items) > 0 {
		if err := json.Unmarshal(r.Items, &a.items); err != nil {
			return nil, err
		}
	}
	if len(a.items) != len(a.rows) {
		return nil, fmt.Errorf("%d rows but %d item rows", len(a.rows), len(a.items))
	}
	return a, nil
}

// groupKey joins a row's non-aggregate cells: the identity of its group.
func (a *answer) groupKey(i int) string {
	var parts []string
	for j, it := range a.items[i] {
		if !it.IsAggregate {
			parts = append(parts, string(a.rows[i][j]))
		}
	}
	return strings.Join(parts, "\x00")
}

func cellFloat(c json.RawMessage) (float64, bool) {
	f, err := strconv.ParseFloat(string(c), 64)
	return f, err == nil
}

// exactAgrees compares a sharded exact answer with the unsharded one:
// same shape, integer and string cells equal, float cells within 1e-9
// relative, because partitioning reorders float sums.
func exactAgrees(got, want *answer) error {
	if len(got.rows) != len(want.rows) {
		return fmt.Errorf("%d rows, unsharded has %d", len(got.rows), len(want.rows))
	}
	for i := range got.rows {
		if len(got.rows[i]) != len(want.rows[i]) {
			return fmt.Errorf("row %d: %d cells, unsharded has %d", i, len(got.rows[i]), len(want.rows[i]))
		}
		for j, g := range got.rows[i] {
			wc := want.rows[i][j]
			if bytes.Equal(g, wc) {
				continue
			}
			gf, ok1 := cellFloat(g)
			wf, ok2 := cellFloat(wc)
			isInt := !bytes.ContainsAny(g, ".eE") && !bytes.ContainsAny(wc, ".eE")
			if !ok1 || !ok2 || isInt || math.Abs(gf-wf) > 1e-9*math.Max(math.Abs(gf), math.Abs(wf)) {
				return fmt.Errorf("row %d cell %d: %s, unsharded has %s", i, j, g, wc)
			}
		}
	}
	return nil
}

// accuracy accumulates the CI quality of the approximate cells of a pool.
type accuracy struct {
	cells   int
	covered int
	widths  float64
	// kept and scanned total the rows the approximate answers kept
	// (rows_scanned × sample_fraction) and read.
	kept, scanned float64
}

// add checks every approximate cell of got (finite ci_lo <= value <= ci_hi)
// and scores it against the exact answer.
func (acc *accuracy) add(got, truth *answer) error {
	byKey := make(map[string]int, len(truth.rows))
	for i := range truth.rows {
		byKey[truth.groupKey(i)] = i
	}
	for i, items := range got.items {
		ti, found := byKey[got.groupKey(i)]
		for j, it := range items {
			if !it.HasCI {
				continue
			}
			v, ok := cellFloat(got.rows[i][j])
			if !ok || math.IsInf(it.CILo, 0) || math.IsInf(it.CIHi, 0) || !(it.CILo <= v && v <= it.CIHi) {
				return fmt.Errorf("row %d %s: CI [%g, %g] does not bracket value %s", i, it.Name, it.CILo, it.CIHi, got.rows[i][j])
			}
			acc.cells++
			if v != 0 {
				acc.widths += (it.CIHi - it.CILo) / 2 / math.Abs(v)
			}
			if !found || j >= len(truth.rows[ti]) {
				continue // a group the exact answer lacks is not covered
			}
			if t, ok := cellFloat(truth.rows[ti][j]); ok && it.CILo <= t && t <= it.CIHi {
				acc.covered++
			}
		}
	}
	return nil
}

func (acc *accuracy) relWidth() float64 {
	if acc.cells == 0 {
		return 0
	}
	return acc.widths / float64(acc.cells)
}

func (acc *accuracy) coverage() float64 {
	if acc.cells == 0 {
		return 1
	}
	return float64(acc.covered) / float64(acc.cells)
}

// goldenEntry is one committed exact answer: the row bytes exactly as the
// server encodes them.
type goldenEntry struct {
	Topology string          `json:"topology"` // single | shards4
	SQL      string          `json:"sql"`
	Rows     json.RawMessage `json:"rows"`
}

type goldenFile struct {
	Rows    int           `json:"rows"`
	Seed    int64         `json:"seed"`
	Answers []goldenEntry `json:"answers"`
}

func goldenPath(root string) string {
	return filepath.Join(root, "bench", "testdata", "answers_seed1.json")
}

func goldenTopology(w workloadSpec) string {
	if w.Topology == "single" {
		return "single"
	}
	return "shards4"
}

// golden is the committed exact answers, keyed by topology and SQL.
type golden map[string]goldenEntry

// loadGolden reads the golden file when it applies to this run: it records
// answers for one seed and row count only.
func loadGolden(root string, rows int, seed int64) (golden, error) {
	data, err := os.ReadFile(goldenPath(root))
	if err != nil {
		return nil, err
	}
	var f goldenFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath(root), err)
	}
	if f.Rows != rows || f.Seed != seed {
		return nil, nil
	}
	g := make(golden, len(f.Answers))
	for _, e := range f.Answers {
		g[e.Topology+"\x00"+e.SQL] = e
	}
	return g, nil
}

// check compares one exact answer with its golden entry, cell for cell.
func (g golden) check(topology, sql string, rows []byte) error {
	want, ok := g[topology+"\x00"+sql]
	if !ok {
		return fmt.Errorf("no golden answer for %s %q (regenerate with -update-golden)", topology, sql)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, rows); err != nil { // aqpd indents its replies
		return err
	}
	if !bytes.Equal(got.Bytes(), want.Rows) {
		return fmt.Errorf("exact answer differs from golden: got %s want %s", clip(got.Bytes()), clip(want.Rows))
	}
	return nil
}

// writeGolden regenerates the golden file from the in-process reference
// for every exact query of every workload at the given seed.
func writeGolden(root string, rows int, seed int64) error {
	star, err := generateStar(rows)
	if err != nil {
		return err
	}
	seen := make(map[string]bool)
	var entries []goldenEntry
	for _, w := range workloads() {
		w.OfflineQCS = nil // only exact answers are recorded
		ref, err := newReference(w, star, nil)
		if err != nil {
			return err
		}
		queries, _ := w.pool(seed)
		for _, q := range queries {
			topo := goldenTopology(w)
			if q.Mode != "exact" || seen[topo+q.SQL] {
				continue
			}
			seen[topo+q.SQL] = true
			r, err := postHandler(ref.twin, q)
			if err != nil {
				return err
			}
			entries = append(entries, goldenEntry{Topology: topo, SQL: q.SQL, Rows: r.Rows})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Topology != entries[j].Topology {
			return entries[i].Topology < entries[j].Topology
		}
		return entries[i].SQL < entries[j].SQL
	})
	// One compact entry per line keeps the file diffable; the row bytes
	// stay exactly as the server encodes them.
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\"rows\":%d,\"seed\":%d,\"answers\":[\n", rows, seed)
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	for i, e := range entries {
		if i > 0 {
			buf.Truncate(buf.Len() - 1) // the encoder's newline
			buf.WriteString(",\n")
		}
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	buf.WriteString("]}\n")
	if err := os.MkdirAll(filepath.Dir(goldenPath(root)), 0o755); err != nil {
		return err
	}
	return os.WriteFile(goldenPath(root), buf.Bytes(), 0o644)
}
