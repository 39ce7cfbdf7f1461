package experiments

import (
	"bytes"
	"testing"

	"iwscan/internal/core"
	"iwscan/internal/inet"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
	"iwscan/internal/timeseries"
)

// TestTelemetryDoesNotPerturbScan is the sampler's golden guarantee:
// a scan with telemetry armed must produce record-for-record identical
// results to the bare scan. The sampler's recurring timer changes event
// sequence numbers but not relative order, and its callbacks draw no
// randomness.
func TestTelemetryDoesNotPerturbScan(t *testing.T) {
	u := inet.NewInternet2017(77)
	base := ScanConfig{Seed: 5, Strategy: core.StrategyHTTP, SampleFraction: 0.002}

	bare := RunScan(u, base)

	armed := base
	armed.Timeseries = timeseries.NewStore(timeseries.Config{})
	rec := RunScan(u, armed)

	if len(bare.Records) != len(rec.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(bare.Records), len(rec.Records))
	}
	for i := range bare.Records {
		if bare.Records[i] != rec.Records[i] {
			t.Fatalf("record %d differs with telemetry armed:\nbare:  %+v\narmed: %+v",
				i, bare.Records[i], rec.Records[i])
		}
	}
	if bare.Net != rec.Net {
		t.Fatalf("network counters differ with telemetry armed:\nbare:  %+v\narmed: %+v",
			bare.Net, rec.Net)
	}

	// And the run actually produced a timeline.
	samples, _ := armed.Timeseries.Series(0)
	if len(samples) < 2 {
		t.Fatalf("telemetry produced %d samples, want a timeline", len(samples))
	}
	var launched int64
	for i := range samples {
		launched += samples[i].C("engine.launched")
	}
	if launched != rec.Engine.Launched {
		t.Fatalf("sample launch deltas sum to %d, want engine total %d", launched, rec.Engine.Launched)
	}
	last := samples[len(samples)-1]
	if !last.Final {
		t.Fatalf("closing sample not marked Final")
	}
	if _, ok := last.Gauges["engine.frontier_lag"]; !ok {
		t.Fatalf("samples missing the frontier-lag probe gauge: %v", last.Gauges)
	}
}

// TestParallelTelemetryPerShard runs a sharded scan with one shared
// store: every shard must contribute its own series, the merged series
// must sum them, and the k-way merge's wait accounting must land in
// the document.
func TestParallelTelemetryPerShard(t *testing.T) {
	u := inet.NewInternet2017(77)
	dst := output.NewMemorySink()
	ts := timeseries.NewStore(timeseries.Config{})
	cfg := ScanConfig{
		Seed: 5, Strategy: core.StrategyHTTP, SampleFraction: 0.002,
		Sink: dst, Timeseries: ts,
	}
	const shards = 3
	res, err := RunScanParallelChecked(u, cfg, shards)
	if err != nil {
		t.Fatalf("parallel scan: %v", err)
	}

	ids := ts.Shards()
	if len(ids) != shards {
		t.Fatalf("store saw %d shards, want %d (got %v)", len(ids), shards, ids)
	}
	var launched int64
	for _, id := range ids {
		samples, _ := ts.Series(id)
		if len(samples) == 0 {
			t.Fatalf("shard %d contributed no samples", id)
		}
		for i := range samples {
			launched += samples[i].C("engine.launched")
		}
	}
	if launched != res.Engine.Launched {
		t.Fatalf("per-shard launch deltas sum to %d, want merged total %d", launched, res.Engine.Launched)
	}
	if len(res.ShardEngines) != shards {
		t.Fatalf("ShardEngines has %d entries, want %d", len(res.ShardEngines), shards)
	}

	doc := ts.Document()
	if len(doc.Merged) == 0 {
		t.Fatalf("multi-shard document missing the merged series")
	}
	if len(doc.MergeWaits) != shards {
		t.Fatalf("document has %d merge-wait rows, want %d", len(doc.MergeWaits), shards)
	}
	var writes int64
	for _, w := range doc.MergeWaits {
		writes += w.Writes
	}
	if got := int64(len(dst.Records())); writes != got {
		t.Fatalf("merge-wait writes sum to %d, want %d sink records", writes, got)
	}
}

// TestParallelFilterPolicy: per-shard filter factories are how stateful
// impairments run under parallel.
func TestParallelFilterPolicy(t *testing.T) {
	u := inet.NewInternet2017(77)
	cfg := ScanConfig{
		Seed: 5, Strategy: core.StrategyHTTP, SampleFraction: 0.001,
		FilterFactories: []func() netsim.Filter{
			func() netsim.Filter { return netsim.TailLossFilter(5, 0.3) },
		},
	}
	par, err := RunScanParallelChecked(u, cfg, 2)
	if err != nil {
		t.Fatalf("parallel scan with filter factories: %v", err)
	}

	// Each shard built its own filter instance over its own slice of the
	// permutation; the merged result must match the serial run with the
	// same (single-instance) filter.
	serial := RunScan(u, cfg)
	if len(par.Records) != len(serial.Records) {
		t.Fatalf("parallel filtered scan has %d records, serial %d", len(par.Records), len(serial.Records))
	}
}

// TestTelemetryStreamFromScan exercises -telemetry-out end to end at
// the library layer: stream a parallel scan to a buffer, then parse and
// verify it.
func TestTelemetryStreamFromScan(t *testing.T) {
	u := inet.NewInternet2017(77)
	var buf bytes.Buffer
	ts := timeseries.NewStore(timeseries.Config{})
	ts.StreamJSONL(&buf)
	cfg := ScanConfig{
		Seed: 5, Strategy: core.StrategyHTTP, SampleFraction: 0.002,
		Timeseries: ts,
	}
	if _, err := RunScanParallelChecked(u, cfg, 2); err != nil {
		t.Fatalf("parallel scan: %v", err)
	}
	if err := ts.CloseStream(); err != nil {
		t.Fatalf("CloseStream: %v", err)
	}
	samples, anomalies, err := timeseries.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if err := timeseries.VerifyStream(samples, anomalies, 2, false); err != nil {
		t.Fatalf("VerifyStream: %v", err)
	}
}

// TestPoolSeriesPerShardSelfConsistent is the accounting gate for the
// per-network packet pools: with no process-wide pool left, each
// shard's netsim.packets_pooled / netsim.pool_miss telemetry series
// must sum to exactly what that shard's own simulator counted — which,
// because shards are fully independent, equals a standalone run of the
// same slice — and the shard sums must add up to the parallel run's
// merged snapshot with nothing double counted and nothing lost.
func TestPoolSeriesPerShardSelfConsistent(t *testing.T) {
	u := inet.NewInternet2017(77)
	const shards = 4
	base := ScanConfig{Seed: 5, Strategy: core.StrategyHTTP, SampleFraction: 0.002}

	ts := timeseries.NewStore(timeseries.Config{})
	cfg := base
	cfg.Timeseries = ts
	par, err := RunScanParallelChecked(u, cfg, shards)
	if err != nil {
		t.Fatal(err)
	}

	var sumPooled, sumMiss int64
	for _, id := range ts.Shards() {
		samples, _ := ts.Series(id)
		var pooled, miss int64
		for i := range samples {
			pooled += samples[i].C("netsim.packets_pooled")
			miss += samples[i].C("netsim.pool_miss")
		}

		// Ground truth: the same slice run standalone. Shard slices are
		// independent simulations, so the parallel shard must have
		// counted exactly this — cross-shard bleed (the old shared-pool
		// failure mode) would show up as a mismatch here.
		solo := base
		solo.Shard = uint64(id)
		solo.Shards = shards
		res, err := RunScanChecked(u, solo)
		if err != nil {
			t.Fatal(err)
		}
		wantPooled := res.Metrics.Counters["netsim.packets_pooled"]
		wantMiss := res.Metrics.Counters["netsim.pool_miss"]
		if pooled != wantPooled || miss != wantMiss {
			t.Errorf("shard %d series: pooled %d / miss %d, standalone run counted %d / %d",
				id, pooled, miss, wantPooled, wantMiss)
		}
		if miss == 0 {
			t.Errorf("shard %d: pool_miss = 0 — a cold free list must miss at least once", id)
		}
		sumPooled += pooled
		sumMiss += miss
	}

	if got := par.Metrics.Counters["netsim.packets_pooled"]; got != sumPooled {
		t.Errorf("merged packets_pooled %d != per-shard series sum %d", got, sumPooled)
	}
	if got := par.Metrics.Counters["netsim.pool_miss"]; got != sumMiss {
		t.Errorf("merged pool_miss %d != per-shard series sum %d", got, sumMiss)
	}
	// hits + misses is the total GetPacket call count; a scan that sent
	// packets cannot have zero of it.
	if sumPooled+sumMiss == 0 {
		t.Error("pool counters all zero — the per-network pool is not reporting through the registry")
	}
}
