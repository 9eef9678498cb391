package server

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strings"

	aqp "repro"
	"repro/internal/storage"
)

// LoadCSVFile loads a CSV file (header row required) into db under
// name, inferring the column types from the data: a column is BOOLEAN if
// every non-NULL cell parses as one, else BIGINT, else DOUBLE, else
// VARCHAR. Cells parse by storage.ParseValue, the rule aqp.DB.LoadCSV
// uses too.
func LoadCSVFile(db *aqp.DB, name, path string) (*aqp.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadCSVReader(db, name, f)
}

// LoadCSVReader is LoadCSVFile over any reader. The input is read once to
// infer the schema and then loaded by aqp.DB.LoadCSV, which parses every
// record before it registers the table.
func LoadCSVReader(db *aqp.DB, name string, r io.Reader) (*aqp.Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("server: read CSV for %s: %w", name, err)
	}
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("server: read CSV for %s: %w", name, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("server: CSV for %s has no header row", name)
	}
	header, rows := recs[0], recs[1:]
	schema := make(aqp.Schema, len(header))
	for j, col := range header {
		schema[j] = aqp.ColumnDef{Name: strings.TrimSpace(col), Type: inferColumnType(rows, j)}
	}
	return db.LoadCSV(name, schema, bytes.NewReader(data))
}

// inferColumnType scans column j of the data rows and returns the first
// of BOOLEAN, BIGINT and DOUBLE that parses every non-NULL cell, VARCHAR
// when none does or every cell is NULL.
func inferColumnType(rows [][]string, j int) aqp.Type {
	types := []aqp.Type{aqp.TypeBool, aqp.TypeInt64, aqp.TypeFloat64}
	seen := false
	for _, rec := range rows {
		if len(types) == 0 {
			break
		}
		if v, _ := storage.ParseValue(aqp.TypeString, rec[j]); v.IsNull() {
			continue
		}
		seen = true
		fit := types[:0]
		for _, t := range types {
			if _, err := storage.ParseValue(t, rec[j]); err == nil {
				fit = append(fit, t)
			}
		}
		types = fit
	}
	if !seen || len(types) == 0 {
		return aqp.TypeString
	}
	return types[0]
}
