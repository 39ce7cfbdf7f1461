package experiments

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"testing"

	"iwscan/internal/checkpoint"
	"iwscan/internal/core"
	"iwscan/internal/inet"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
	"iwscan/internal/prefixtree"
	"iwscan/internal/timeseries"
)

// smartBaseCfg is the shared configuration for the smart determinism
// tests: the streamCfg shape (slow enough to interrupt) at a sample
// where the trained model prunes real space.
func smartBaseCfg() ScanConfig {
	return ScanConfig{
		Seed: 11, Strategy: core.StrategyHTTP, SampleFraction: 0.002,
		Rate: 100, MSSList: []int{64}, Repeats: 1,
	}
}

// trainPlan runs the base scan uninterrupted, folds its records into a
// model, and compiles the pruning plan the other tests share.
func trainPlan(t *testing.T, u *inet.Universe, threshold float64) (*prefixtree.Model, *prefixtree.Plan) {
	t.Helper()
	cfg := smartBaseCfg()
	cfg.Rate = 10000
	res, err := RunScanChecked(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete || len(res.Records) == 0 {
		t.Fatal("training run incomplete or empty")
	}
	model := prefixtree.New()
	model.ObserveRecords(res.Records)
	plan := prefixtree.NewPlan(model, prefixtree.PlanConfig{
		Threshold: threshold, Explore: -1, Seed: smartBaseCfg().Seed,
	})
	return model, plan
}

// TestSmartScanDeterministic: the same seed and plan produce
// byte-identical output on every run — including with telemetry armed,
// which must observe without perturbing.
func TestSmartScanDeterministic(t *testing.T) {
	u := inet.NewInternet2017(2017)
	_, plan := trainPlan(t, u, 0.01)

	run := func(arm bool) []byte {
		var buf bytes.Buffer
		cfg := smartBaseCfg()
		cfg.Rate = 10000
		cfg.Smart = plan
		cfg.Sink = output.NewCSVSink(&buf)
		if arm {
			cfg.Timeseries = timeseries.NewStore(timeseries.Config{Ring: 64})
		}
		res, err := RunScanChecked(u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Incomplete {
			t.Fatal("smart run incomplete")
		}
		if res.Engine.Pruned == 0 {
			t.Fatal("smart run pruned nothing — the plan is not engaged")
		}
		return buf.Bytes()
	}

	a, b, armed := run(false), run(false), run(true)
	if !bytes.Equal(a, b) {
		t.Fatalf("two smart runs differ (%d vs %d bytes)", len(a), len(b))
	}
	if !bytes.Equal(a, armed) {
		t.Fatalf("telemetry-armed smart run differs from unarmed (%d vs %d bytes)", len(armed), len(a))
	}
}

// TestSmartScanSavesProbesKeepsHosts pins the quantitative contract on
// the simulated 2017 universe: rescanning with the trained plan must
// skip a large share of the probes while re-finding every responsive
// host (training and rescan share seed and sample, so the sampler
// re-selects the same addresses and zero-responsive /24s are provably
// safe to prune).
func TestSmartScanSavesProbesKeepsHosts(t *testing.T) {
	u := inet.NewInternet2017(2017)

	full := smartBaseCfg()
	full.Rate = 10000
	fullRes, err := RunScanChecked(u, full)
	if err != nil {
		t.Fatal(err)
	}
	model := prefixtree.New()
	model.ObserveRecords(fullRes.Records)
	plan := prefixtree.NewPlan(model, prefixtree.PlanConfig{
		Threshold: 0.01, Explore: -1, Seed: full.Seed,
	})

	smart := smartBaseCfg()
	smart.Rate = 10000
	smart.Smart = plan
	smartRes, err := RunScanChecked(u, smart)
	if err != nil {
		t.Fatal(err)
	}

	fullHosts := len(prefixtree.Hitlist(fullRes.Records))
	smartHosts := len(prefixtree.Hitlist(smartRes.Records))
	saved := 1 - float64(len(smartRes.Records))/float64(len(fullRes.Records))
	t.Logf("full %d probes %d hosts; smart %d probes %d hosts (%.1f%% saved)",
		len(fullRes.Records), fullHosts, len(smartRes.Records), smartHosts, 100*saved)
	if fullHosts == 0 {
		t.Fatal("training run found no hosts")
	}
	if smartHosts < fullHosts {
		t.Fatalf("smart rescan found %d hosts, training run found %d", smartHosts, fullHosts)
	}
	if saved < 0.30 {
		t.Fatalf("smart rescan saved only %.1f%% of probes, want >= 30%%", 100*saved)
	}

	// The parallel fold must report what the shards pruned.
	parRes, err := RunScanParallelChecked(u, smart, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := parRes.Engine.Pruned, smartRes.Engine.Pruned; got != want || want == 0 {
		t.Fatalf("2-shard smart scan reports %d pruned, serial %d (want equal and > 0)", got, want)
	}
}

// TestSmartResumeByteIdentical extends the resume-identity guarantee to
// smart scans: interrupting and resuming a plan-driven scan splices to
// the exact bytes of the uninterrupted run.
func TestSmartResumeByteIdentical(t *testing.T) {
	u := inet.NewInternet2017(2017)
	_, plan := trainPlan(t, u, 0.01)

	mk := func() ScanConfig {
		cfg := smartBaseCfg()
		cfg.Smart = plan
		return cfg
	}

	var want bytes.Buffer
	ref := mk()
	ref.Sink = output.NewCSVSink(&want)
	refRes, err := RunScanChecked(u, ref)
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Incomplete {
		t.Fatal("reference smart run incomplete")
	}

	var got bytes.Buffer
	ckPath := filepath.Join(t.TempDir(), "smart.ck")
	// Limits must exceed the ~3s virtual probe tail or the frontier
	// probe can never complete within a segment and resume cannot make
	// progress (the same bound the plain-scan splice test observes).
	interrupted := runSegmentsCfg(t, u, mk, &got, ckPath, []netsim.Time{
		3600 * netsim.Millisecond, 3700 * netsim.Millisecond, 3650 * netsim.Millisecond,
	})
	if interrupted < 2 {
		t.Fatalf("smart scan was interrupted %d times; want at least 2", interrupted)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("spliced smart output differs from uninterrupted run (%d vs %d bytes, %d interruptions)",
			got.Len(), want.Len(), interrupted)
	}
}

// TestSmartResumeRejectsDifferentModel: a checkpoint written under one
// plan must refuse to resume under another (different threshold or a
// differently trained model), failing with a *checkpoint.MismatchError
// that names the smart field.
func TestSmartResumeRejectsDifferentModel(t *testing.T) {
	u := inet.NewInternet2017(2017)
	model, plan := trainPlan(t, u, 0.01)

	ckPath := filepath.Join(t.TempDir(), "smart.ck")
	cfg := smartBaseCfg()
	cfg.Smart = plan
	cfg.Sink = output.NewCSVSink(io.Discard)
	cfg.CheckpointPath = ckPath
	cfg.TimeLimit = 3600 * netsim.Millisecond
	res, err := RunScanChecked(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete {
		t.Fatal("time-limited smart run unexpectedly completed")
	}
	st, err := checkpoint.Load(ckPath)
	if err != nil {
		t.Fatal(err)
	}

	// A different threshold compiles to a different plan identity.
	otherPlan := prefixtree.NewPlan(model, prefixtree.PlanConfig{
		Threshold: 0.5, Explore: -1, Seed: smartBaseCfg().Seed,
	})
	// A differently trained model, same thresholds.
	otherModel := prefixtree.New()
	otherModel.Observe(0x0a000000, prefixtree.Counts{Probed: 1, Dark: 1})
	otherModelPlan := prefixtree.NewPlan(otherModel, prefixtree.PlanConfig{
		Threshold: 0.01, Explore: -1, Seed: smartBaseCfg().Seed,
	})

	for name, bad := range map[string]*prefixtree.Plan{
		"threshold": otherPlan,
		"model":     otherModelPlan,
		"no-plan":   nil,
	} {
		c := smartBaseCfg()
		if bad != nil {
			c.Smart = bad
		}
		c.Resume = st
		_, err := RunScanChecked(u, c)
		var mm *checkpoint.MismatchError
		if !errors.As(err, &mm) {
			t.Errorf("resume with %s: err = %v, want *checkpoint.MismatchError", name, err)
			continue
		}
		found := false
		for _, f := range mm.Fields {
			if len(f) >= 5 && f[:5] == "smart" {
				found = true
			}
		}
		if !found {
			t.Errorf("resume with %s: mismatch fields %v do not name the smart field", name, mm.Fields)
		}
	}

	// The matching plan resumes cleanly.
	good := smartBaseCfg()
	good.Smart = plan
	good.Resume = st
	good.Sink, _ = output.NewFileSink(io.Discard, "csv", true)
	if _, err := RunScanChecked(u, good); err != nil {
		t.Fatalf("resume with the matching plan failed: %v", err)
	}
}

// TestHitlistScanDeterministicAndComplete: a hitlist scan probes
// exactly the listed addresses (sample 1), deterministically.
func TestHitlistScanDeterministic(t *testing.T) {
	u := inet.NewInternet2017(2017)
	base := smartBaseCfg()
	base.Rate = 10000
	res, err := RunScanChecked(u, base)
	if err != nil {
		t.Fatal(err)
	}
	hl := prefixtree.Hitlist(res.Records)
	if len(hl) == 0 {
		t.Fatal("training run found no responsive hosts")
	}
	if limit := 0.7 * float64(res.Engine.Launched); float64(len(hl)) > limit {
		t.Fatalf("hitlist has %d addresses, want <= 70%% of the training scan's %d launches",
			len(hl), res.Engine.Launched)
	}

	run := func() []byte {
		var buf bytes.Buffer
		cfg := smartBaseCfg()
		cfg.Rate = 10000
		cfg.SampleFraction = 1
		cfg.Hitlist = hl
		cfg.Sink = output.NewCSVSink(&buf)
		cfg.KeepRecords = true
		r, err := RunScanChecked(u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := int(r.Engine.Launched); got != len(hl) {
			t.Fatalf("hitlist scan launched %d probes, list has %d", got, len(hl))
		}
		if found := len(prefixtree.Hitlist(r.Records)); found != len(hl) {
			t.Fatalf("hitlist rescan re-found %d of %d hosts", found, len(hl))
		}
		return buf.Bytes()
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatal("two hitlist runs differ")
	}
}
