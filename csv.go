package aqp

import (
	"encoding/csv"
	"fmt"
	"io"

	"repro/internal/storage"
)

// LoadCSV reads CSV data (with a header row naming columns in schema
// order) into a new table registered under name. Values parse per the
// schema; empty cells and the literal NULL become NULLs. Every record is
// parsed before the table is created, so a failed load registers nothing.
func (db *DB) LoadCSV(name string, schema Schema, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(schema)
	var rows [][]Value
	// The first record is the header; an empty input loads an empty table.
	for first := true; ; first = false {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			// csv.ParseError names the record's line.
			return nil, fmt.Errorf("aqp: read CSV: %w", err)
		}
		if first {
			continue
		}
		vals := make([]Value, len(schema))
		for i, cell := range rec {
			if vals[i], err = storage.ParseValue(schema[i].Type, cell); err != nil {
				line, _ := cr.FieldPos(i)
				return nil, fmt.Errorf("aqp: CSV line %d column %s: %w", line, schema[i].Name, err)
			}
		}
		rows = append(rows, vals)
	}
	t, err := db.CreateTable(name, schema)
	if err != nil {
		return nil, err
	}
	if err := t.AppendRows(rows); err != nil {
		return nil, err
	}
	return t, nil
}

// DumpTableCSV writes an entire table as CSV with a header row. It dumps
// a snapshot, so it is safe under concurrent appends.
func DumpTableCSV(w io.Writer, t *Table) error {
	t = t.Snapshot()
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Schema().Names()); err != nil {
		return err
	}
	n := t.NumRows()
	rec := make([]string, len(t.Schema()))
	for i := 0; i < n; i++ {
		for j := range rec {
			rec[j] = t.Column(j).Value(i).String()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// DumpCSV writes a result as CSV.
func DumpCSV(w io.Writer, r *Result) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.Columns); err != nil {
		return err
	}
	rec := make([]string, len(r.Columns))
	for _, row := range r.Rows {
		for j, v := range row {
			rec[j] = v.String()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
