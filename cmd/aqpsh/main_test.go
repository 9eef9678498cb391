package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	aqp "repro"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

// The shell files a statement exactly as aqpd files the same request: the
// same counter families and the same flight-record statuses, for an answer
// and for a parse failure alike.
func TestShellFilesWhatAqpdFiles(t *testing.T) {
	star, err := workload.GenerateStar(workload.Config{Seed: 42, LineitemRows: 5000})
	if err != nil {
		t.Fatal(err)
	}
	db := aqp.Open(star.Catalog)
	stmts := []string{"SELECT COUNT(*) FROM lineitem", "SELEC l_quantity FROM lineitem"}

	sh := newShell()
	sh.setDB(db)
	for _, sql := range stmts {
		sh.run(sql, aqp.Request{})
	}

	srv := server.New(db, server.Config{Telemetry: true})
	for _, sql := range stmts {
		body, _ := json.Marshal(server.QueryRequest{SQL: sql})
		srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	}

	if got, want := counterKeys(sh.obs.Metrics()), counterKeys(srv.Metrics()); !reflect.DeepEqual(got, want) {
		t.Errorf("shell counters %v, aqpd counters %v", got, want)
	}
	if got, want := statuses(sh.obs.Flight().Snapshot("t")), statuses(srv.FlightBundle("t")); !reflect.DeepEqual(got, want) {
		t.Errorf("shell flight statuses %v, aqpd flight statuses %v", got, want)
	}
}

func counterKeys(m *server.Metrics) []string {
	var keys []string
	for k := range m.Snapshot(nil).Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func statuses(b telemetry.Bundle) []int {
	var out []int
	for _, qr := range b.Queries {
		out = append(out, qr.Status)
	}
	return out
}
