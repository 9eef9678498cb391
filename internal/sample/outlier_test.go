package sample

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/storage"
)

func heavyTable(t *testing.T, n int, seed int64) (*storage.Table, float64) {
	t.Helper()
	tbl := storage.NewTable("h", storage.Schema{
		{Name: "v", Type: storage.TypeFloat64},
	})
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for i := 0; i < n; i++ {
		v := math.Pow(rng.Float64()+1e-12, -1/1.5)
		sum += v
		if err := tbl.AppendRow(storage.Float64(v)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl, sum
}

func TestOutlierIndexEstimate(t *testing.T) {
	tbl, truth := heavyTable(t, 50000, 3)
	idx, err := BuildOutlierIndex(tbl, "v", 500, 0.02, 1, "oi")
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.OutlierRows) != 500 {
		t.Fatalf("outliers = %d", len(idx.OutlierRows))
	}
	est, variance := idx.EstimateSum()
	if variance < 0 {
		t.Fatal("negative variance")
	}
	if math.Abs(est-truth)/truth > 0.1 {
		t.Errorf("estimate %v vs truth %v", est, truth)
	}
	if idx.StorageRows() != 500+idx.SampleRows {
		t.Error("storage accounting")
	}
	if idx.BuildVersion != tbl.Version() {
		t.Error("version")
	}
}

func TestOutlierIndexBeatsUniformOnTail(t *testing.T) {
	tbl, truth := heavyTable(t, 50000, 5)
	trials := 15
	var uniErr, oiErr float64
	for tr := 0; tr < trials; tr++ {
		// Uniform at storage-matched rate (0.02 + 0.01 outliers).
		u := NewUniform(0.03, int64(tr)*7+1)
		var est float64
		vcol := tbl.Column(0)
		for i := 0; i < tbl.NumRows(); i++ {
			if d := u.Decide(i); d.Keep {
				est += d.Weight * vcol.Value(i).AsFloat()
			}
		}
		uniErr += math.Abs(est-truth) / truth

		idx, err := BuildOutlierIndex(tbl, "v", 500, 0.02, int64(tr)*13+1, "oi2")
		if err != nil {
			t.Fatal(err)
		}
		oest, _ := idx.EstimateSum()
		oiErr += math.Abs(oest-truth) / truth
	}
	if oiErr >= uniErr {
		t.Errorf("outlier index should beat uniform on Pareto tails: oi=%v uni=%v", oiErr, uniErr)
	}
}

func TestOutlierIndexValidation(t *testing.T) {
	tbl, _ := heavyTable(t, 100, 1)
	if _, err := BuildOutlierIndex(tbl, "v", 0, 0.1, 1, "x"); err == nil {
		t.Error("k=0 must error")
	}
	if _, err := BuildOutlierIndex(tbl, "v", 10, 0, 1, "x"); err == nil {
		t.Error("rate 0 must error")
	}
	if _, err := BuildOutlierIndex(tbl, "nope", 10, 0.1, 1, "x"); err == nil {
		t.Error("unknown column must error")
	}
	s := storage.NewTable("s", storage.Schema{{Name: "name", Type: storage.TypeString}})
	if err := s.AppendRow(storage.Str("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildOutlierIndex(s, "name", 1, 0.5, 1, "x"); err == nil {
		t.Error("non-numeric column must error")
	}
}
