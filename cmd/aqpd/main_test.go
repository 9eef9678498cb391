package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSLOConfigNeedsTelemetry: an -slo-config file is refused without
// -telemetry, by a message naming both flags, however good the file is;
// with -telemetry it is parsed, and a bad one is refused by name.
func TestSLOConfigNeedsTelemetry(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "slo.json")
	if err := os.WriteFile(good, []byte(`[{"name":"latency_p95","kind":"latency","hist":"query_latency_seconds","threshold_ms":500,"target":0.95}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{`), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{good, bad} {
		_, err := readObjectives(path, false)
		if err == nil || !strings.Contains(err.Error(), "-slo-config") || !strings.Contains(err.Error(), "-telemetry") {
			t.Errorf("%s without -telemetry: err %v, want a refusal naming -slo-config and -telemetry", filepath.Base(path), err)
		}
	}
	objs, err := readObjectives(good, true)
	if err != nil || len(objs) != 1 || objs[0].Name != "latency_p95" {
		t.Errorf("good file with -telemetry: %v, %v", objs, err)
	}
	if _, err := readObjectives(bad, true); err == nil || !strings.Contains(err.Error(), "-slo-config") {
		t.Errorf("bad file with -telemetry: err %v, want a refusal naming -slo-config", err)
	}
	for _, telemetry := range []bool{false, true} {
		if objs, err := readObjectives("", telemetry); objs != nil || err != nil {
			t.Errorf("no file, telemetry=%v: %v, %v", telemetry, objs, err)
		}
	}
}
