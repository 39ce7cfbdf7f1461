package jobs

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"iwscan/internal/experiments"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
	"iwscan/internal/prefixtree"
)

// testSpec is a scan small enough to finish in seconds but long enough
// (several segments at the test slice length) to pause mid-flight.
func testSpec() Spec {
	return Spec{
		Tenant: "acme", Seed: 7, SampleFraction: 0.002,
		Rate: 60, MSSList: []int{64}, Repeats: 1,
	}
}

// referenceBytes runs the spec uninterrupted through the same sink
// construction the manager uses — the golden output every managed
// execution must reproduce byte for byte.
func referenceBytes(t *testing.T, spec Spec) []byte {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	j := &job{Job: Job{Spec: spec, EffectiveRate: spec.Rate}}
	cfg := j.scanConfig()
	if err := spec.applyTargets(&cfg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink, err := output.NewFileSink(&buf, spec.Format, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = sink
	res, err := experiments.RunScanChecked(spec.universe(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete {
		t.Fatal("reference run incomplete")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func waitJob(t *testing.T, m *Manager, id, what string, pred func(JobView) bool) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished while waiting for %s", id, what)
		}
		if pred(v) {
			return v
		}
		time.Sleep(time.Millisecond)
	}
	v, _ := m.Get(id)
	t.Fatalf("timed out waiting for %s; job: %+v", what, v)
	return JobView{}
}

// postOK sends one lifecycle verb through the manager's HTTP API, as a
// client of the daemon would, and requires a 200.
func postOK(t *testing.T, m *Manager, path string) {
	t.Helper()
	srv := httptest.NewServer(NewServer(m).Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+path, "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: HTTP %d, want 200", path, resp.StatusCode)
	}
}

// TestPauseResumeRestartByteIdentical is the tentpole acceptance test:
// a job paused mid-flight and resumed over HTTP, interrupted by two
// daemon restarts (one of them with a torn artifact tail from a
// simulated mid-segment crash), must produce an artifact byte-identical
// to the same scan run uninterrupted.
func TestPauseResumeRestartByteIdentical(t *testing.T) {
	spec := testSpec()
	want := referenceBytes(t, spec)

	mcfg := Config{Dir: t.TempDir(), SliceVirtual: 5 * netsim.Second}
	m1, err := NewManager(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := v.ID
	postOK(t, m1, "/jobs/"+id+"/pause")
	paused := waitJob(t, m1, id, "pause point", func(v JobView) bool {
		return v.State == StatePaused
	})
	if paused.Slices == 0 || paused.ArtifactBytes == 0 {
		t.Fatalf("paused before any segment produced output: %+v", paused)
	}
	art, ok := m1.ArtifactPath(id)
	if !ok {
		t.Fatalf("no artifact path for %s", id)
	}
	part, err := os.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	if len(part) >= len(want) || !bytes.HasPrefix(want, part) {
		t.Fatalf("paused artifact is not a strict prefix of the reference (%d vs %d bytes)",
			len(part), len(want))
	}
	m1.Close()

	// Simulate a crash that tore the artifact past the last durable
	// pause point: recovery must roll it back.
	f, err := os.OpenFile(art, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("torn tail from a mid-segment crash")
	f.Close()

	m2, err := NewManager(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	v2, ok := m2.Get(id)
	if !ok || v2.State != StatePaused {
		t.Fatalf("after restart: state %s, want paused", v2.State)
	}
	if got, _ := os.ReadFile(art); !bytes.Equal(got, part) {
		t.Fatalf("recovery did not roll the torn artifact back to %d bytes (have %d)",
			len(part), len(got))
	}
	postOK(t, m2, "/jobs/"+id+"/resume")
	// Let it make more progress, then restart mid-run: Close drains the
	// executing segment to its pause point and the job re-queues on the
	// next start.
	waitJob(t, m2, id, "post-resume progress", func(v JobView) bool {
		return v.Slices >= paused.Slices+1
	})
	m2.Close()

	m3, err := NewManager(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, m3, id, "completion", func(v JobView) bool {
		return v.State.Terminal()
	})
	m3.Close()
	if done.State != StateCompleted {
		t.Fatalf("job finished as %s (%s), want completed", done.State, done.Error)
	}
	got, err := os.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("resumed artifact differs from the uninterrupted run (%d vs %d bytes, %d segments)",
			len(got), len(want), done.Slices)
	}
	if done.ArtifactBytes != int64(len(got)) {
		t.Fatalf("recorded artifact size %d, file has %d", done.ArtifactBytes, len(got))
	}
	if done.Slices < 3 {
		t.Fatalf("job ran in %d segments; want several to exercise splicing", done.Slices)
	}
	if done.RecordsEmitted == 0 || done.Launched < done.Completed {
		t.Fatalf("implausible counters: %+v", done)
	}
}

// TestSmartJobEndToEnd: a smart-mode job trained on a prior full scan
// runs through the manager, prunes real space, and produces the same
// artifact as the uninterrupted reference run of the same spec.
func TestSmartJobEndToEnd(t *testing.T) {
	train := testSpec()
	if err := train.Normalize(); err != nil {
		t.Fatal(err)
	}
	j := &job{Job: Job{Spec: train, EffectiveRate: train.Rate}}
	cfg := j.scanConfig()
	cfg.Rate = 10000
	res, err := experiments.RunScanChecked(train.universe(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete || len(res.Records) == 0 {
		t.Fatal("training run incomplete or empty")
	}
	model := prefixtree.New()
	model.ObserveRecords(res.Records)
	modelPath := filepath.Join(t.TempDir(), "model.iwsm")
	if err := prefixtree.Save(modelPath, model); err != nil {
		t.Fatal(err)
	}

	spec := testSpec()
	spec.ScanMode = "smart"
	spec.SmartModel = modelPath
	spec.SmartThreshold = 0.01
	want := referenceBytes(t, spec)

	m, err := NewManager(Config{Dir: t.TempDir(), SliceVirtual: 5 * netsim.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, m, v.ID, "completion", func(v JobView) bool { return v.State.Terminal() })
	if done.State != StateCompleted {
		t.Fatalf("smart job finished as %s (%s), want completed", done.State, done.Error)
	}
	if done.Pruned == 0 {
		t.Fatal("smart job pruned nothing — the plan is not engaged")
	}
	art, ok := m.ArtifactPath(v.ID)
	if !ok {
		t.Fatalf("no artifact path for %s", v.ID)
	}
	got, err := os.ReadFile(art)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("managed smart artifact differs from the reference run (%d vs %d bytes)",
			len(got), len(want))
	}
}

// TestPersistenceRoundTrip: every durable field survives a save/load
// cycle through the job file.
func TestPersistenceRoundTrip(t *testing.T) {
	mcfg := Config{Dir: t.TempDir(), SliceVirtual: 5 * netsim.Second}
	m1, err := NewManager(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	v, err := m1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Pause(v.ID); err != nil {
		t.Fatal(err)
	}
	before := waitJob(t, m1, v.ID, "pause", func(v JobView) bool { return v.State == StatePaused })
	m1.Close()

	m2, err := NewManager(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	after, ok := m2.Get(v.ID)
	if !ok {
		t.Fatalf("job %s lost across restart", v.ID)
	}
	if after.State != StatePaused || !reflect.DeepEqual(after.Spec, before.Spec) ||
		after.EffectiveRate != before.EffectiveRate || after.Estimate != before.Estimate ||
		after.RecordsEmitted != before.RecordsEmitted || after.ArtifactBytes != before.ArtifactBytes ||
		after.Slices != before.Slices || after.Launched != before.Launched ||
		after.CreatedUnixNS != before.CreatedUnixNS {
		t.Fatalf("round trip changed the job:\nbefore: %+v\nafter:  %+v", before, after)
	}
}

// TestEffectiveRateBudgetShares: admission caps each job's engine rate
// at its tenant's weighted share of the global budget.
func TestEffectiveRateBudgetShares(t *testing.T) {
	m, err := NewManager(Config{Dir: t.TempDir(), BudgetPPS: 1000, SliceVirtual: 5 * netsim.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	a := Spec{Tenant: "a", Rate: 50000, SampleFraction: 0.0002, Seed: 1, MSSList: []int{64}, Repeats: 1}
	va, err := m.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	// Sole tenant: the whole budget.
	if va.EffectiveRate != 1000 {
		t.Fatalf("sole tenant admitted at %v pps, want the full 1000 budget", va.EffectiveRate)
	}
	b := a
	b.Tenant, b.Weight = "b", 3
	vb, err := m.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	// Weight 3 of total 4: three quarters of the budget.
	if vb.EffectiveRate != 750 {
		t.Fatalf("weight-3 tenant admitted at %v pps, want 750", vb.EffectiveRate)
	}
	// A modest request is admitted as asked.
	c := a
	c.Tenant, c.Rate = "c", 50
	vc, err := m.Submit(c)
	if err != nil {
		t.Fatal(err)
	}
	if vc.EffectiveRate != 50 {
		t.Fatalf("under-budget request admitted at %v pps, want 50", vc.EffectiveRate)
	}
}

// TestSubmitRejectsOversizedBody: a 10 MB spec body is refused with a
// named 413 as soon as maxSpecBytes have been read, and submits nothing.
func TestSubmitRejectsOversizedBody(t *testing.T) {
	m, err := NewManager(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	srv := httptest.NewServer(NewServer(m).Handler())
	defer srv.Close()

	// Valid JSON all the way, so only the size bound can stop it.
	body := `{"tenant":"` + strings.Repeat("a", 10<<20) + `"}`
	start := time.Now()
	resp, err := srv.Client().Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := readAll(resp)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("oversized submit took %v", elapsed)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "spec body exceeds") {
		t.Fatalf("HTTP %d %.200q, want 413 naming the size bound", resp.StatusCode, msg)
	}
	if len(m.List()) != 0 {
		t.Fatal("oversized spec left a job behind")
	}
}

func TestSubmitRejectsInvalidSpec(t *testing.T) {
	m, err := NewManager(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Submit(Spec{}); err == nil ||
		!strings.Contains(err.Error(), "tenant is required") {
		t.Fatalf("empty spec: err = %v, want tenant requirement", err)
	}
	if len(m.List()) != 0 {
		t.Fatal("rejected spec left a job behind")
	}
}

// TestCancelLifecycle: cancelling queued and running jobs lands in
// cancelled with the durable artifact prefix intact, and lifecycle
// errors map cleanly.
func TestCancelLifecycle(t *testing.T) {
	spec := testSpec()
	want := referenceBytes(t, spec)
	m, err := NewManager(Config{Dir: t.TempDir(), SliceVirtual: 5 * netsim.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	done := waitJob(t, m, v.ID, "cancellation", func(v JobView) bool { return v.State.Terminal() })
	if done.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", done.State)
	}
	art, _ := m.ArtifactPath(v.ID)
	got, err := os.ReadFile(art)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(want, got) {
		t.Fatalf("cancelled artifact (%d bytes) is not a prefix of the reference", len(got))
	}
	if int64(len(got)) != done.ArtifactBytes {
		t.Fatalf("artifact %d bytes, view records %d", len(got), done.ArtifactBytes)
	}
	// Terminal jobs reject further lifecycle verbs.
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatalf("cancel is not idempotent: %v", err)
	}
	if _, err := m.Resume(v.ID); err == nil {
		t.Fatal("resumed a cancelled job")
	}
	if _, err := m.Pause(v.ID); err == nil {
		t.Fatal("paused a cancelled job")
	}
}
