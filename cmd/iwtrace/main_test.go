package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iwscan/internal/flight"
)

// TestValidateComparesSidecar saves one record, then replaces its
// .trace.json sidecar with a trace that is valid JSON but not the
// record's export: `iwtrace validate` must accept the saved record and
// reject the tampered one by name.
func TestValidateComparesSidecar(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "00001-20.0.0.7")
	rec := &flight.Record{
		Target: "20.0.0.7", Verdict: "ghost", Trigger: "verdict", BeganNS: 1000, EndedNS: 9000,
		Events: []flight.RecordEvent{
			{AtNS: 1000, Type: "phase", Note: "syn"},
			{AtNS: 2000, Type: "phase", Note: "collect"},
			{AtNS: 9000, Type: "verdict", Note: "ghost"},
		},
	}
	if err := rec.Save(base); err != nil {
		t.Fatal(err)
	}
	if err := runValidate([]string{dir}); err != nil {
		t.Fatalf("validate rejected a freshly saved record: %v", err)
	}

	other := `{"traceEvents":[{"name":"x","ph":"i","ts":0,"pid":1,"tid":1}],"displayTimeUnit":"ms"}` + "\n"
	if err := os.WriteFile(base+".trace.json", []byte(other), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runValidate([]string{dir})
	if err == nil {
		t.Fatal("validate accepted a sidecar that differs from the record's export")
	}
	if !strings.Contains(err.Error(), base+".flight.json") {
		t.Errorf("error does not name the record: %v", err)
	}
}
