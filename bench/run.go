package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// session is what a run knows once its first topology is up: the pool with
// the answer every reply must match, and the verdicts of the preflight.
type session struct {
	walks [][]int
	plan  *runPlan
	probe *layerProbe
	acc   *accuracy
	fails failures
}

// offlineProfile lists the statements that certify the offline samples:
// exactly the ones the workload will ask in offline mode.
func offlineProfile(queries []query) []string {
	var out []string
	for _, q := range queries {
		if q.Mode == "offline" {
			out = append(out, q.SQL)
		}
	}
	return out
}

// open builds the in-process reference (generating the data under the
// storage probe's bracket), derives the expected answer of every query and
// runs the preflight against the topology at url.
func open(cfg config, w workloadSpec, queries []query, round []int, url string, rec *recorder) (*session, error) {
	s := &session{walks: schedules(round, cfg.seed, clientCount),
		probe: &layerProbe{rec: rec, out: make(map[string]metric)}}
	if err := s.probe.measureStorage(cfg.rows); err != nil {
		return nil, err
	}
	ref, err := newReference(w, s.probe.star, offlineProfile(queries))
	if err != nil {
		return nil, err
	}
	if s.plan, err = newRunPlan(w, queries, ref); err != nil {
		return nil, err
	}
	probes, err := newRunPlan(w, w.probes(queries), ref)
	if err != nil {
		return nil, err
	}
	gold, err := loadGolden(cfg.root, cfg.rows, cfg.seed)
	if err != nil {
		return nil, err
	}
	s.acc = preflight(url, ref, gold, &s.fails, s.plan, probes)
	return s, nil
}

func (s *session) reportFailures(extra ...string) {
	for _, line := range append(s.fails.lines(), extra...) {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED %s\n", s.plan.w.Name, line)
	}
}

// runWorkload runs one pass of one workload.
func runWorkload(cfg config, w workloadSpec, pass int) (runRecord, error) {
	rec := runRecord{Workload: w.Name, Seed: cfg.seed, Trace: pass}
	var err error
	if pass == 0 {
		err = runEndToEnd(cfg, w, &rec)
	} else {
		err = runTraced(cfg, w, &rec)
	}
	rec.Correct = rec.Failed == 0
	return rec, err
}

// runEndToEnd measures the end-to-end metrics with tracing off. The run
// boots cfg.setups fresh topologies in turn: setup_s is the median of
// their set-up times, and each serves an equal share of the timed window
// after its own warm-up, so that one process's luck with heap layout or
// scheduling does not decide the run's latencies.
func runEndToEnd(cfg config, w workloadSpec, rec *runRecord) error {
	queries, round := w.pool(cfg.seed)
	length := time.Duration(cfg.seconds * float64(time.Second))
	warmup := length / 10 // per topology: connections, hedge ring, heap
	var (
		s           *session
		setups, rss []float64
		total       = &window{byQuery: make([][]float64, len(queries))}
	)
	for i := 0; i < cfg.setups; i++ {
		topo, err := boot(cfg, w, offlineProfile(queries))
		if err != nil {
			return err
		}
		err = func() error {
			defer topo.stop()
			setups = append(setups, topo.setup.Seconds())
			if s == nil {
				// Ground truth and the accuracy metrics are taken once, here,
				// outside set-up and outside any timed window.
				if s, err = open(cfg, w, queries, round, topo.url, nil); err != nil {
					return err
				}
			}
			offset := i * len(round) / cfg.setups
			drive(topo.url, s.plan, s.walks, offset, warmup)
			total.merge(drive(topo.url, s.plan, s.walks, offset, length/time.Duration(cfg.setups)))
			mb, err := topo.rssMB()
			rss = append(rss, mb)
			return err
		}()
		if err != nil {
			return err
		}
	}
	n := len(total.latencies)
	if n == 0 {
		return fmt.Errorf("no correct reply in the timed window: %v", total.fails.lines())
	}
	if beyond := samplesBeyond(n, 95); beyond < tailSamples {
		fmt.Fprintf(os.Stderr, "bench: %s: only %d samples beyond p95 (%d latencies; highest supported percentile p%g): lengthen -seconds\n",
			w.Name, beyond, n, highestPercentile(n))
	}
	rec.Samples = n
	rec.Attempted = total.attempted
	// A query that failed the preflight is wrong every time it is asked.
	// The window's own check has counted those requests already, unless the
	// failure is one only the preflight tests for (golden, CI validity).
	rec.Failed = max(total.fails.total(), min(s.fails.total(), total.attempted))
	rec.Metrics = map[string]metric{
		"qps":          {float64(n) / total.elapsed.Seconds(), "1/s"},
		"p50_ms":       {percentile(total.latencies, 50), "ms"},
		"p95_ms":       {percentile(total.latencies, 95), "ms"},
		"setup_s":      {median(setups), "s"},
		"rss_mb":       {median(rss), "MB"},
		"ci_rel_width": {s.acc.relWidth(), "ratio"},
		"ci_coverage":  {s.acc.coverage(), "ratio"},
	}
	printBreakdown(w, queries, total)
	s.reportFailures(total.fails.lines()...)
	return nil
}

// tracedRounds is how often the traced pass replays each distinct query,
// untraced and again traced.
const tracedRounds = 3

// runTraced is the traced pass: on one topology, one client replays every
// distinct query under bench-side spans, then again asking aqpd for its
// own span tree; then the in-process probes time single layers. No
// end-to-end metric comes from here.
func runTraced(cfg config, w workloadSpec, rec *runRecord) error {
	queries, round := w.pool(cfg.seed)
	topo, err := boot(cfg, w, offlineProfile(queries))
	if err != nil {
		return err
	}
	defer topo.stop()
	spans := &recorder{}
	s, err := open(cfg, w, queries, round, topo.url, spans)
	if err != nil {
		return err
	}
	drive(topo.url, s.plan, s.walks, 0, time.Second)
	plainLat, overhead := replay(topo.url, s.plan, tracedRounds, false, spans, &s.fails)
	tracedLat, _ := replay(topo.url, s.plan, tracedRounds, true, spans, &s.fails)
	if len(plainLat) == 0 || len(tracedLat) == 0 {
		return fmt.Errorf("no correct reply in the traced pass: %v", s.fails.lines())
	}
	topo.stop() // the in-process probes get the machine to themselves

	probe := s.probe
	probe.sqls = distinctSQL(queries)
	if err := probe.run(); err != nil {
		return err
	}
	probe.set("server.overhead_us", median(overhead), "us")
	probe.set("trace.overhead_ratio", median(tracedLat)/median(plainLat), "ratio")
	kept := 0.0
	if s.acc.scanned > 0 {
		kept = s.acc.kept / s.acc.scanned
	}
	probe.set("sample.kept_ratio", kept, "ratio")
	self := selfByCategory(spans.snapshot(), "query")
	for _, cat := range aqpdCategories {
		probe.set("aqpd.self_us."+cat, us(float64(self[cat]))/float64(len(tracedLat)), "us")
	}
	rec.Samples = len(plainLat)
	rec.Attempted = len(queries)*(1+2*tracedRounds) + len(w.probes(queries))
	rec.Failed = s.fails.total()
	rec.Metrics = probe.out
	path := cfg.traceOut
	if path == "" {
		path = filepath.Join(cfg.buildDir, "spans_"+w.Name+".json")
	}
	s.reportFailures()
	return spans.write(path)
}
