package server

import (
	"errors"
	"testing"
	"time"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/sqlparse"
)

// One derivation feeds the insight registry and the flight recorder, in
// aqpd and aqpsh alike: every flag an observer files must come through it.
func TestServedDerivation(t *testing.T) {
	stmt, err := sqlparse.Parse("SELECT SUM(x) FROM t WHERE y = 3")
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Result{Technique: core.TechniqueOnline, Guarantee: core.GuaranteeAPosteriori}
	res.Diagnostics.Counters.RowsScanned = 77
	res.Diagnostics.Degraded, res.Diagnostics.Partial = true, true
	res.Diagnostics.Shards = &core.ShardExecSummary{Extrapolated: true}
	res.Diagnostics.Contract = &contract.Summary{Verdict: contract.VerdictMissed}
	start := time.Now()
	ok := Served{Start: start, LatencyMS: 1.5, SQL: "q", Mode: "online", Stmt: stmt, Res: res, Status: 200}

	obs := ok.Observation()
	if obs.Technique != "online-sampling" || obs.RowsScanned != 77 || !obs.Approximate || !obs.Degraded ||
		!obs.Extrapolated || !obs.Partial || obs.ContractVerdict != "missed" || obs.Err || obs.LatencyMS != 1.5 {
		t.Errorf("observation %+v", obs)
	}
	qr := ok.Record()
	if qr.Mode != "online" || qr.Technique != "online-sampling" || qr.Status != 200 || qr.RowsScanned != 77 ||
		!qr.Degraded || !qr.Partial || qr.ContractVerdict != "missed" || qr.Err != "" ||
		qr.Fingerprint != stmt.Fingerprint().Hash || !qr.Start.Equal(start) {
		t.Errorf("record %+v", qr)
	}

	// A failure before parsing: counted as an error, no shape to file under.
	failed := Served{Start: start, LatencyMS: 2, SQL: "nope", Err: errors.New("boom"), Status: 400}
	if obs := failed.Observation(); !obs.Err || obs.Technique != "" || obs.LatencyMS != 2 {
		t.Errorf("failed observation %+v", obs)
	}
	if qr := failed.Record(); qr.Err != "boom" || qr.Status != 400 || qr.Fingerprint != "" || qr.Technique != "" {
		t.Errorf("failed record %+v", qr)
	}
}
