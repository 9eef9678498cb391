package sample

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/storage"
	"repro/internal/workload"
)

// storedDigest hashes every row of a stored sample in table order: each
// value's group key, which renders floats exactly, then the weight's bits.
func storedDigest(t *storage.Table) string {
	h := sha256.New()
	wIdx := t.Schema().ColumnIndex(WeightColumn)
	var buf [8]byte
	for r := 0; r < t.NumRows(); r++ {
		for c := range t.Schema() {
			v := t.Column(c).Value(r)
			if c == wIdx {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.F))
				h.Write(buf[:])
				continue
			}
			h.Write([]byte(v.GroupKey()))
			h.Write([]byte{0x1f})
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// rowsDigest hashes a list of row ids in its order.
func rowsDigest(rows []int) string {
	h := sha256.New()
	var buf [8]byte
	for _, r := range rows {
		binary.LittleEndian.PutUint64(buf[:], uint64(r))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestStoredSamplePin holds every stored-sample builder to the rows, the
// weights and the counts it wrote at fixed seeds over one skewed events
// table: a change to how a stored sample is drawn or written shows here.
func TestStoredSamplePin(t *testing.T) {
	ev, err := workload.GenerateEvents(workload.EventsConfig{
		Seed: 33, Rows: 50000, NumGroups: 200, Skew: 1.3, ValueDist: "pareto"})
	if err != nil {
		t.Fatal(err)
	}
	src := ev.Table
	type pinned struct {
		digest        string
		rows, strata  int
		outliers      string // digest of the outlier row ids, in index order
		outlierSumBit uint64
	}
	got := map[string]pinned{}

	strat, err := BuildStratified(src, StratifiedConfig{
		KeyColumns: []string{"ev_group"}, CapPerStratum: 100, Seed: 5}, "strat")
	if err != nil {
		t.Fatal(err)
	}
	got["stratified"] = pinned{digest: storedDigest(strat.Table), rows: strat.SampleRows, strata: strat.Strata}

	ney, err := BuildStratifiedNeyman(src, NeymanConfig{
		KeyColumns: []string{"ev_group"}, ValueColumn: "ev_value", TotalBudget: 2000, Seed: 5}, "ney")
	if err != nil {
		t.Fatal(err)
	}
	got["neyman"] = pinned{digest: storedDigest(ney.Table), rows: ney.SampleRows, strata: ney.Strata}

	uni, err := BuildUniformTable(src, 0.02, 5, "uni")
	if err != nil {
		t.Fatal(err)
	}
	got["uniform"] = pinned{digest: storedDigest(uni.Table), rows: uni.SampleRows, strata: uni.Strata}

	oi, err := BuildOutlierIndex(src, "ev_value", 250, 0.02, 5, "oi")
	if err != nil {
		t.Fatal(err)
	}
	got["outlier"] = pinned{digest: storedDigest(oi.Sample), rows: oi.SampleRows,
		outliers: rowsDigest(oi.OutlierRows), outlierSumBit: math.Float64bits(oi.OutlierSum)}

	want := map[string]pinned{
		"stratified": {digest: "bc01a4c3b653703f", rows: 10292, strata: 200},
		"neyman":     {digest: "c262698e40b84324", rows: 2081, strata: 200},
		"uniform":    {digest: "db46241a1087fe75", rows: 945, strata: 1},
		"outlier": {digest: "6ec179ec63823692", rows: 936,
			outliers: "5e3d5cee8985803b", outlierSumBit: 4672018545304467514},
	}
	for name, w := range want {
		if g := got[name]; g != w {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}
