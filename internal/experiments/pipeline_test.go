package experiments

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"iwscan/internal/checkpoint"
	"iwscan/internal/core"
	"iwscan/internal/inet"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
)

// streamCfg is the shared configuration for the checkpoint/resume tests:
// small enough to run fast, slow enough (rate 100/s against a ~3s probe
// tail) that a virtual time limit lands mid-scan.
func streamCfg() ScanConfig {
	return ScanConfig{
		Seed: 5, Strategy: core.StrategyHTTP, SampleFraction: 0.001,
		Rate: 100, MSSList: []int{64}, Repeats: 1,
	}
}

// TestStreamedScanHoldsOBufferRecords is the acceptance criterion for
// the streaming pipeline: a full-sample scan through a file sink must
// hold O(buffer) records — bounded by the in-flight reorder window, not
// the target count.
func TestStreamedScanHoldsOBufferRecords(t *testing.T) {
	u := inet.NewInternet2017(2017)
	fileSink, err := output.NewFileSink(io.Discard, "csv", false)
	if err != nil {
		t.Fatal(err)
	}
	counting := output.NewCountingSink(fileSink)
	cfg := ScanConfig{
		Seed: 3, Strategy: core.StrategySYN, SampleFraction: 1,
		Rate: 100000, MaxOutstanding: 10000, Sink: counting,
	}
	res, err := RunScanChecked(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Fatalf("streamed scan retained %d records in the result without KeepRecords", len(res.Records))
	}
	if counting.Count() != res.Engine.Launched || res.Engine.Launched == 0 {
		t.Fatalf("sink saw %d records, engine launched %d", counting.Count(), res.Engine.Launched)
	}
	// The reorder buffer is bounded by the completion-reordering window
	// (probes in flight plus those stalled behind the slowest one), never
	// by the target count.
	if res.MaxBuffered == 0 {
		t.Fatal("MaxBuffered = 0: the high-water mark was not tracked")
	}
	if int64(res.MaxBuffered) >= res.Engine.Launched/5 {
		t.Fatalf("buffered up to %d of %d records — accumulating, not streaming",
			res.MaxBuffered, res.Engine.Launched)
	}
	t.Logf("streamed %d records, max %d buffered (max in flight %d)",
		counting.Count(), res.MaxBuffered, res.Engine.MaxInFlight)
}

// TestKeepRecordsStillPopulatesResult: the -q/!quiet path keeps the
// in-memory record set alongside the sink stream, and both agree.
func TestKeepRecordsStillPopulatesResult(t *testing.T) {
	u := inet.NewInternet2017(2017)
	mem := output.NewMemorySink()
	cfg := streamCfg()
	cfg.Rate = 10000
	cfg.Sink = mem
	cfg.KeepRecords = true
	res, err := RunScanChecked(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 || len(res.Records) != len(mem.Records()) {
		t.Fatalf("result kept %d records, sink saw %d", len(res.Records), len(mem.Records()))
	}
	for i := range res.Records {
		if res.Records[i] != mem.Records()[i] {
			t.Fatalf("record %d differs between result and sink", i)
		}
	}
}

// runSegments drives one logical scan to completion as a sequence of
// time-limited runs spliced via checkpoint/resume, appending CSV to buf.
// It returns the number of interrupted segments.
func runSegments(t *testing.T, u *inet.Universe, buf *bytes.Buffer, ckPath string, limits []netsim.Time) int {
	return runSegmentsCfg(t, u, streamCfg, buf, ckPath, limits)
}

// runSegmentsCfg is runSegments over any base configuration factory
// (called fresh per segment so segments never share mutable state).
func runSegmentsCfg(t *testing.T, u *inet.Universe, mk func() ScanConfig, buf *bytes.Buffer, ckPath string, limits []netsim.Time) int {
	t.Helper()
	interrupted := 0
	for seg := 0; ; seg++ {
		if seg >= 40 {
			t.Fatal("scan did not complete within 40 segments — resume is not making progress")
		}
		cfg := mk()
		cfg.CheckpointPath = ckPath
		cfg.CheckpointInterval = netsim.Second
		cfg.TimeLimit = limits[seg%len(limits)]
		if seg == 0 {
			cfg.Sink = output.NewCSVSink(buf)
		} else {
			st, err := checkpoint.Load(ckPath)
			if err != nil {
				t.Fatalf("segment %d: %v", seg, err)
			}
			if st.Completed {
				t.Fatalf("segment %d: checkpoint already completed but last run was incomplete", seg)
			}
			cfg.Resume = st
			cfg.Sink, _ = output.NewFileSink(buf, "csv", true)
		}
		res, err := RunScanChecked(u, cfg)
		if err != nil {
			t.Fatalf("segment %d: %v", seg, err)
		}
		if !res.Incomplete {
			return interrupted
		}
		interrupted++
	}
}

// TestCheckpointResumeByteIdentical is the acceptance criterion for
// checkpointed scans: kill a scan at several points, resume each time,
// and the concatenated output must be byte-identical to an
// uninterrupted run with the same seed.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	u := inet.NewInternet2017(2017)

	// Reference: one uninterrupted run.
	var want bytes.Buffer
	cfg := streamCfg()
	cfg.Sink = output.NewCSVSink(&want)
	ref, err := RunScanChecked(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Incomplete {
		t.Fatal("reference run incomplete")
	}

	// Interrupted: the same scan killed at varying virtual-time limits.
	var got bytes.Buffer
	ckPath := filepath.Join(t.TempDir(), "scan.ck")
	interrupted := runSegments(t, u, &got, ckPath, []netsim.Time{
		3600 * netsim.Millisecond, 4500 * netsim.Millisecond, 4 * netsim.Second,
	})
	if interrupted < 2 {
		t.Fatalf("scan was interrupted %d times; want at least 2 to exercise resume", interrupted)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("spliced output differs from the uninterrupted run (%d vs %d bytes, %d interruptions)",
			got.Len(), want.Len(), interrupted)
	}

	// The final checkpoint is marked completed and refuses another resume.
	st, err := checkpoint.Load(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Completed {
		t.Fatal("final checkpoint not marked completed")
	}
	cfg = streamCfg()
	cfg.Resume = st
	if _, err := RunScanChecked(u, cfg); err == nil ||
		!strings.Contains(err.Error(), "completed") {
		t.Fatalf("resuming a completed checkpoint: err = %v, want completed rejection", err)
	}
}

// TestResumeRejectsMismatchedConfig: a checkpoint must never be
// replayed into a scan with a different identity (seed, sample, ...).
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	u := inet.NewInternet2017(2017)
	ckPath := filepath.Join(t.TempDir(), "scan.ck")
	cfg := streamCfg()
	cfg.Sink = output.NewCSVSink(io.Discard)
	cfg.CheckpointPath = ckPath
	cfg.TimeLimit = 3600 * netsim.Millisecond
	res, err := RunScanChecked(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete {
		t.Fatal("time-limited run unexpectedly completed; cannot test resume rejection")
	}
	st, err := checkpoint.Load(ckPath)
	if err != nil {
		t.Fatal(err)
	}

	for name, mutate := range map[string]func(*ScanConfig){
		"seed":     func(c *ScanConfig) { c.Seed++ },
		"sample":   func(c *ScanConfig) { c.SampleFraction *= 2 },
		"strategy": func(c *ScanConfig) { c.Strategy = core.StrategyTLS },
		"mss":      func(c *ScanConfig) { c.MSSList = []int{64, 128} },
		"shards":   func(c *ScanConfig) { c.Shards = 2 },
	} {
		bad := streamCfg()
		mutate(&bad)
		bad.Resume = st
		if _, err := RunScanChecked(u, bad); err == nil ||
			!strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("resume with mutated %s: err = %v, want fingerprint mismatch", name, err)
		}
	}

	// The matching configuration does resume.
	good := streamCfg()
	good.Resume = st
	good.Sink, _ = output.NewFileSink(io.Discard, "csv", true)
	if _, err := RunScanChecked(u, good); err != nil {
		t.Fatalf("resume with the matching config failed: %v", err)
	}
}

// TestParallelMergeSinkMatchesSerial: shards streaming through the
// k-way merge must produce the same ordered byte stream an unsharded
// scan writes — without any shard accumulating its record set.
func TestParallelMergeSinkMatchesSerial(t *testing.T) {
	u := inet.NewInternet2017(55)
	cfg := ScanConfig{Seed: 9, Strategy: core.StrategyHTTP, SampleFraction: 0.004, MSSList: []int{64}, Repeats: 1}

	var serial bytes.Buffer
	c := cfg
	c.Sink = output.NewCSVSink(&serial)
	sres, err := RunScanChecked(u, c)
	if err != nil {
		t.Fatal(err)
	}

	var parallel bytes.Buffer
	c = cfg
	c.Sink = output.NewCSVSink(&parallel)
	pres, err := RunScanParallelChecked(u, c, 4)
	if err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(serial.Bytes(), parallel.Bytes()) {
		t.Fatalf("merged parallel stream differs from the serial one (%d vs %d bytes)",
			parallel.Len(), serial.Len())
	}
	if pres.Engine.Launched != sres.Engine.Launched {
		t.Fatalf("parallel launched %d, serial %d", pres.Engine.Launched, sres.Engine.Launched)
	}
	if int64(pres.MaxBuffered) >= sres.Engine.Launched {
		t.Fatalf("parallel pipeline buffered %d of %d records", pres.MaxBuffered, sres.Engine.Launched)
	}
}

// TestParallelRejectsCheckpointing: in-process shards share one sink, so
// per-engine checkpoint cursors cannot be made consistent with it;
// the combination must error instead of writing unusable checkpoints.
func TestParallelRejectsCheckpointing(t *testing.T) {
	u := inet.NewInternet2017(55)
	cfg := streamCfg()
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "scan.ck")
	if _, err := RunScanParallelChecked(u, cfg, 2); err == nil {
		t.Fatal("parallel scan with a checkpoint path did not error")
	}
	cfg = streamCfg()
	cfg.Resume = &checkpoint.State{}
	if _, err := RunScanParallelChecked(u, cfg, 2); err == nil {
		t.Fatal("parallel scan with a resume state did not error")
	}
}

// TestScanWithRetriesCompletes: the retry plumbing through RunScan
// re-launches unreachable probes and surfaces the count in the stats
// and the merged metrics.
func TestScanWithRetriesCompletes(t *testing.T) {
	u := inet.NewInternet2017(2017)
	cfg := streamCfg()
	cfg.Rate = 10000
	cfg.MaxRetries = 1
	res, err := RunScanChecked(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The modelled space always has unresponsive addresses, so retries
	// must actually have happened and been counted coherently.
	if res.Engine.Retries == 0 {
		t.Fatal("no retries recorded against a space with unreachable targets")
	}
	if got := res.Metrics.Counters["engine.retries"]; got != res.Engine.Retries {
		t.Fatalf("engine.retries metric = %d, stats say %d", got, res.Engine.Retries)
	}
	// Unreachable records remain (retries exhausted), once per target.
	seen := map[uint32]bool{}
	for _, r := range res.Records {
		if seen[uint32(r.Addr)] {
			t.Fatalf("%s appears twice in the record set", r.Addr)
		}
		seen[uint32(r.Addr)] = true
	}
	if int64(len(res.Records)) != res.Engine.Launched {
		t.Fatalf("%d records for %d launched targets", len(res.Records), res.Engine.Launched)
	}
}
