package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"iwscan/internal/events"
	"iwscan/internal/jobs"
	"iwscan/internal/netsim"
)

// TestJobsValidateVerb runs `iwtrace jobs -validate` end to end on the journal
// one small job leaves behind, and on a copy with a line deleted (a sequence gap).
func TestJobsValidateVerb(t *testing.T) {
	dir := t.TempDir()
	jr, err := events.Open(filepath.Join(dir, "events"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := jobs.NewManager(jobs.Config{Dir: dir, Events: jr, SliceVirtual: 5 * netsim.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	watch, _ := jr.Subscribe(1, 4096)
	v, err := m.Submit(jobs.Spec{Tenant: "trace", Seed: 9, SampleFraction: 0.0003, Rate: 2000, MSSList: []int{64}, Repeats: 1})
	if err != nil {
		t.Fatal(err)
	}
	for ev := range watch.C() { // ends at the job's terminal edge, or when the journal closes
		if ev.Job == v.ID && ev.Type == events.TypeStateChange && ev.Phase == events.PhaseEnd {
			break
		}
	}
	m.Close() // writes server_shutdown and closes the journal
	if done, _ := m.Get(v.ID); done.State != jobs.StateCompleted {
		t.Fatalf("job finished as %s (%s), want completed", done.State, done.Error)
	}
	path := filepath.Join(dir, "events", events.FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	mid := len(lines) / 2
	gapped := filepath.Join(dir, "gapped.jsonl")
	if err := os.WriteFile(gapped, bytes.Join(append(lines[:mid:mid], lines[mid+1:]...), nil), 0o644); err != nil {
		t.Fatal(err)
	}
	for file, valid := range map[string]bool{path: true, gapped: false} {
		if err := runJobs([]string{"-validate", "-min-dispatch", "1", file}); (err == nil) != valid {
			t.Errorf("iwtrace jobs -validate %s: err = %v, want valid = %v", filepath.Base(file), err, valid)
		}
	}
}
