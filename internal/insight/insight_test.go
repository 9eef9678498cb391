package insight

import (
	"fmt"
	"sync"
	"testing"
)

func obs(tech string, lat float64) Observation {
	return Observation{Technique: tech, LatencyMS: lat, RowsScanned: 100}
}

// TestOfferFingerprintsAndCounts: literal variants collapse onto one
// scorecard; distinct shapes get their own.
func TestOfferFingerprintsAndCounts(t *testing.T) {
	r := New(Config{})
	h1 := r.Offer("SELECT SUM(x) FROM t WHERE x > 5", obs("online", 1))
	h2 := r.Offer("SELECT SUM(x) FROM t WHERE x > 900", obs("online", 2))
	h3 := r.Offer("SELECT AVG(x) FROM t WHERE x > 5", obs("exact", 3))
	if h1 == "" || h1 != h2 {
		t.Fatalf("literal variants got different fingerprints: %q vs %q", h1, h2)
	}
	if h3 == h1 {
		t.Fatalf("distinct shapes share fingerprint %q", h1)
	}
	if n := r.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
	top := r.Top(10, ByTraffic)
	if len(top) != 2 {
		t.Fatalf("Top returned %d cards", len(top))
	}
	if top[0].Fingerprint != h1 || top[0].Queries != 2 {
		t.Fatalf("top card = %+v, want fingerprint %s with 2 queries", top[0], h1)
	}
	if len(top[0].Techniques) != 1 || top[0].Techniques[0].Technique != "online" {
		t.Fatalf("technique mix = %+v", top[0].Techniques)
	}
}

// TestOfferUnparseableIsTotal: garbage SQL is counted, not fatal.
func TestOfferUnparseableIsTotal(t *testing.T) {
	r := New(Config{})
	if h := r.Offer("DELETE FROM t", obs("exact", 1)); h != "" {
		t.Fatalf("unparseable SQL produced fingerprint %q", h)
	}
	if s := r.Summary(); s.Unparseable != 1 || s.Fingerprints != 0 {
		t.Fatalf("summary = %+v", s)
	}
}

// TestEvictionLRU: at cap, the coldest fingerprint is evicted; hot ones
// survive.
func TestEvictionLRU(t *testing.T) {
	var mu sync.Mutex
	var evicted []string
	r := New(Config{Cap: 3, OnEvent: func(ev Event) {
		if ev.Kind == EventEvicted {
			mu.Lock()
			evicted = append(evicted, ev.Fingerprint)
			mu.Unlock()
		}
	}})
	sqlFor := func(i int) string { return fmt.Sprintf("SELECT SUM(c%d) FROM t", i) }
	h0 := r.Offer(sqlFor(0), obs("exact", 1))
	h1 := r.Offer(sqlFor(1), obs("exact", 1))
	h2 := r.Offer(sqlFor(2), obs("exact", 1))
	// Re-touch 0 so 1 is now coldest.
	r.Offer(sqlFor(0), obs("exact", 1))
	h3 := r.Offer(sqlFor(3), obs("exact", 1)) // evicts 1
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if len(evicted) != 1 || evicted[0] != h1 {
		t.Fatalf("evicted %v, want [%s]", evicted, h1)
	}
	if r.Evictions() != 1 {
		t.Fatalf("Evictions = %d", r.Evictions())
	}
	kept := map[string]bool{}
	for _, c := range r.Top(0, ByTraffic) {
		kept[c.Fingerprint] = true
	}
	for _, want := range []string{h0, h2, h3} {
		if !kept[want] {
			t.Fatalf("hot fingerprint %s evicted; kept %v", want, kept)
		}
	}
}

// TestEvictionUnderCapPressureConcurrent hammers a tiny registry from
// concurrent Offer and ReportAudit callers (run with -race): the cap
// must hold and the counters must stay consistent — every offer
// accounted for, live cards plus evictions balancing admissions.
// (Deterministic hot-survival is TestEvictionLRU; under concurrent
// churn a true LRU can in principle rotate any key out.)
func TestEvictionUnderCapPressureConcurrent(t *testing.T) {
	r := New(Config{Cap: 4})
	hot := "SELECT COUNT(*) FROM t WHERE x > 1"
	hotHash := r.Offer(hot, obs("online", 1))

	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Every worker keeps the hot shape warm while churning its
				// own cold shapes through the cap.
				r.Offer(hot, obs("online", float64(i%7)))
				r.Offer(fmt.Sprintf("SELECT SUM(c%d_%d) FROM t", w, i%6), obs("exact", 1))
				r.ReportAudit(hotHash, "online", i%5 != 0)
			}
		}(w)
	}
	wg.Wait()

	if n := r.Len(); n > 4 {
		t.Fatalf("Len = %d exceeds cap 4", n)
	}
	s := r.Summary()
	wantOffered := uint64(2*workers*perWorker + 1)
	if s.Offered != wantOffered {
		t.Fatalf("offered = %d, want %d", s.Offered, wantOffered)
	}
	// 49 distinct shapes churned through a cap-4 registry: evictions must
	// have happened, and the books must balance — admissions (live +
	// evicted) cover at least every distinct shape and never exceed the
	// offer count.
	if s.Evictions == 0 {
		t.Fatal("no evictions under cap pressure")
	}
	admissions := uint64(s.Fingerprints) + s.Evictions
	if distinct := uint64(1 + workers*6); admissions < distinct {
		t.Fatalf("admissions %d < distinct shapes %d", admissions, distinct)
	}
	if admissions > s.Offered {
		t.Fatalf("admissions %d exceed offers %d", admissions, s.Offered)
	}

	// Deterministic post-phase: re-warm the hot shape and audit it
	// serially; the bounded coverage window must hold exactly window
	// outcomes.
	if got := r.Offer(hot, obs("online", 1)); got != hotHash {
		t.Fatalf("hot fingerprint changed: %s vs %s", got, hotHash)
	}
	for i := 0; i < window+4; i++ {
		r.ReportAudit(hotHash, "online", true)
	}
	for _, c := range r.Top(0, ByTraffic) {
		if c.Fingerprint != hotHash {
			continue
		}
		for _, ts := range c.Techniques {
			if ts.Technique == "online" {
				if ts.CoverageN != window {
					t.Fatalf("coverage window N = %d, want %d (bounded)", ts.CoverageN, window)
				}
				return
			}
		}
		t.Fatal("hot card has no online technique sub-scorecard")
	}
	t.Fatal("hot card missing after re-warm")
}

// TestReportAuditUnknownFingerprint: audits for evicted or never-seen
// fingerprints are ignored without creating cards.
func TestReportAuditUnknownFingerprint(t *testing.T) {
	r := New(Config{})
	r.ReportAudit("deadbeefdeadbeef", "online", true)
	r.ReportAudit("", "online", true)
	if r.Len() != 0 {
		t.Fatalf("ReportAudit created %d cards", r.Len())
	}
}

// TestTopOrders: the three rankings order as documented.
func TestTopOrders(t *testing.T) {
	r := New(Config{})
	// Shape A: high traffic, fast.
	for i := 0; i < 10; i++ {
		r.Offer("SELECT COUNT(*) FROM t", obs("exact", 1))
	}
	// Shape B: low traffic, slow.
	for i := 0; i < 3; i++ {
		r.Offer("SELECT SUM(x) FROM t WHERE x > 1", obs("online", 500))
	}
	byTraffic := r.Top(0, ByTraffic)
	if byTraffic[0].Queries != 10 {
		t.Fatalf("traffic order wrong: %+v", byTraffic[0])
	}
	byLat := r.Top(0, ByLatency)
	if byLat[0].LatencyP95MS != 500 {
		t.Fatalf("latency order wrong: %+v", byLat[0])
	}
}

// TestErrorsCounted: failed queries count toward the shape without
// polluting its latency window.
func TestErrorsCounted(t *testing.T) {
	r := New(Config{})
	sql := "SELECT SUM(x) FROM t WHERE x > 2"
	r.Offer(sql, obs("online", 5))
	r.Offer(sql, Observation{Err: true, LatencyMS: 10000})
	top := r.Top(1, ByTraffic)
	if top[0].Queries != 2 || top[0].Errors != 1 {
		t.Fatalf("card = %+v", top[0])
	}
	if top[0].LatencyP95MS > 100 {
		t.Fatalf("error latency leaked into the quantile window: %+v", top[0])
	}
}
