package sqlparse

import (
	"sync"
	"testing"
)

// TestSharedStatementAccessors: String, Fingerprint, Aggregates and
// HasAggregates are safe on one statement from many goroutines, and every
// caller sees the same memoised value. Meaningful under -race.
func TestSharedStatementAccessors(t *testing.T) {
	for _, sql := range fuzzSeedCorpus {
		stmt, want := mustParse(t, sql), mustParse(t, sql)
		text, fp, nAggs := want.String(), want.Fingerprint(), len(want.Aggregates())
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := stmt.String(); got != text {
					t.Errorf("String() = %q, want %q", got, text)
				}
				if got := stmt.Fingerprint(); got.Hash != fp.Hash || got.Template != fp.Template {
					t.Errorf("Fingerprint() = %+v, want %+v", got, fp)
				}
				if got := len(stmt.Aggregates()); got != nAggs || stmt.HasAggregates() != want.HasAggregates() {
					t.Errorf("%q: %d aggregates, want %d", sql, got, nAggs)
				}
			}()
		}
		wg.Wait()
	}
}
