package aqp

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
)

// TestAggregatePlacement: an aggregate outside the select list and HAVING
// is refused by name (WHERE, GROUP BY, JOIN ON, inside another aggregate)
// or, in ORDER BY, sorts like the select item with the same text. No
// statement here may reach the executor's panic containment, in any mode.
func TestAggregatePlacement(t *testing.T) {
	db := demoDB(t)
	zones, err := db.CreateTable("zones", Schema{{Name: "zone_region", Type: TypeString}, {Name: "zone", Type: TypeInt64}})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range []string{"east", "west", "north"} {
		if err := zones.AppendRow(Str(r), Int64(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// byAlias is the order every ORDER BY SUM(amount) DESC must match.
	const byAlias = "SELECT region, SUM(amount) AS s FROM sales GROUP BY region ORDER BY s DESC"
	cases := []struct {
		sql     string
		wantErr string // "" = answers with rows
		sameAs  string // the rows must equal this statement's, in order
	}{
		{sql: "SELECT region, SUM(amount) FROM sales WHERE SUM(amount) > 1 GROUP BY region", wantErr: "in WHERE"},
		{sql: "SELECT SUM(amount) FROM sales GROUP BY SUM(amount)", wantErr: "in GROUP BY"},
		{sql: "SELECT SUM(SUM(amount)) FROM sales", wantErr: "inside another aggregate"},
		{sql: "SELECT region, SUM(amount) FROM sales GROUP BY region HAVING SUM(COUNT(*)) > 1", wantErr: "inside another aggregate"},
		{sql: "SELECT SUM(amount) FROM sales JOIN zones ON region = zone_region AND SUM(amount) > 0", wantErr: "in JOIN ON"},
		{sql: "SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY SUM(amount) + 1", wantErr: "ORDER BY"},
		{sql: "SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY COUNT(*)", wantErr: "ORDER BY"},
		{sql: "SELECT region, amount FROM sales ORDER BY SUM(amount)", wantErr: "ORDER BY"},
		{sql: byAlias},
		{sql: "SELECT region, SUM(amount) AS s FROM sales GROUP BY region ORDER BY SUM(amount) DESC", sameAs: byAlias},
		{sql: "SELECT region, SUM(amount) FROM sales GROUP BY region ORDER BY SUM(amount) DESC", sameAs: byAlias},
		{sql: "SELECT region, SUM(amount) + 1 AS s FROM sales GROUP BY region ORDER BY SUM(amount) + 1 DESC",
			sameAs: "SELECT region, SUM(amount) + 1 AS s FROM sales GROUP BY region ORDER BY s DESC"},
	}
	ctx := context.Background()
	for _, mode := range []Mode{ModeExact, ModeAuto, ModeOnline, ModeOffline, ModeOLA, ModeAsWritten} {
		for _, c := range cases {
			res, err := db.RunSQL(ctx, c.sql, Request{Mode: mode})
			switch {
			case errors.Is(err, ErrQueryPanic):
				t.Fatalf("%s %q: %v", mode, c.sql, err)
			case c.wantErr != "":
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Errorf("%s %q: err = %v, want one naming %q", mode, c.sql, err, c.wantErr)
				}
			case err != nil:
				t.Errorf("%s %q: %v", mode, c.sql, err)
			case res.NumRows() == 0:
				t.Errorf("%s %q: no rows", mode, c.sql)
			case c.sameAs != "":
				want, err := db.RunSQL(ctx, c.sameAs, Request{Mode: ModeExact})
				if err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(res.Rows, want.Rows, slices.Equal[[]Value]) {
					t.Errorf("%s %q: rows %v, want %v", mode, c.sql, res.Rows, want.Rows)
				}
			}
		}
	}
}
