package timeseries

import (
	"bytes"
	"strings"
	"testing"

	"iwscan/internal/netsim"
)

// mk builds a minimal sample for detector and ring tests.
func mk(shard int, index uint64, counters, gauges map[string]int64) Sample {
	const iv = int64(100 * netsim.Millisecond)
	return Sample{
		Shard:    shard,
		Index:    index,
		StartNS:  int64(index) * iv,
		EndNS:    int64(index+1) * iv,
		WallNS:   1e6,
		Counters: counters,
		Gauges:   gauges,
	}
}

func TestRingEviction(t *testing.T) {
	st := NewStore(Config{Ring: 4})
	for i := uint64(0); i < 10; i++ {
		st.Append(mk(0, i, map[string]int64{"engine.launched": int64(i)}, nil))
	}
	samples, evicted := st.Series(0)
	if len(samples) != 4 {
		t.Fatalf("retained %d samples, want 4", len(samples))
	}
	if evicted != 6 {
		t.Fatalf("evicted = %d, want 6", evicted)
	}
	for i, s := range samples {
		if want := uint64(6 + i); s.Index != want {
			t.Fatalf("samples[%d].Index = %d, want %d (oldest-first order)", i, s.Index, want)
		}
	}
	if got := st.TotalSamples(); got != 10 {
		t.Fatalf("TotalSamples = %d, want 10", got)
	}
}

func TestMergedSumsAcrossShards(t *testing.T) {
	st := NewStore(Config{})
	st.Append(mk(0, 0, map[string]int64{"engine.launched": 10}, map[string]int64{"engine.in_flight": 3}))
	st.Append(mk(1, 0, map[string]int64{"engine.launched": 7}, map[string]int64{"engine.in_flight": 2}))
	st.Append(mk(0, 1, map[string]int64{"engine.launched": 5}, nil))

	merged := st.Merged()
	if len(merged) != 2 {
		t.Fatalf("merged has %d intervals, want 2", len(merged))
	}
	if got := merged[0].C("engine.launched"); got != 17 {
		t.Fatalf("merged[0] launched = %d, want 17", got)
	}
	if got := merged[0].G("engine.in_flight"); got != 5 {
		t.Fatalf("merged[0] in_flight = %d, want 5", got)
	}
	if got := merged[0].WallNS; got != 2e6 {
		t.Fatalf("merged[0] WallNS = %d, want sum 2e6", got)
	}
	if merged[0].Shard != -1 {
		t.Fatalf("merged sample shard = %d, want -1", merged[0].Shard)
	}
	if got := merged[1].C("engine.launched"); got != 5 {
		t.Fatalf("merged[1] launched = %d, want 5", got)
	}
}

func TestStallDetectorEdgeTriggered(t *testing.T) {
	st := NewStore(Config{StallIntervals: 3})
	stalled := map[string]int64{"engine.launched": 1}
	inflight := map[string]int64{"engine.in_flight": 50}

	var fired []Anomaly
	for i := uint64(0); i < 6; i++ {
		fired = append(fired, st.Append(mk(0, i, stalled, inflight))...)
	}
	if len(fired) != 1 {
		t.Fatalf("stall fired %d times over 6 stalled intervals, want 1 (edge-triggered)", len(fired))
	}
	if fired[0].Kind != KindStall || fired[0].Index != 2 {
		t.Fatalf("stall anomaly = %+v, want kind=stall at index 2", fired[0])
	}

	// A completing interval closes the episode; a new run re-fires.
	st.Append(mk(0, 6, map[string]int64{"engine.completed": 4}, inflight))
	fired = nil
	for i := uint64(7); i < 10; i++ {
		fired = append(fired, st.Append(mk(0, i, stalled, inflight))...)
	}
	if len(fired) != 1 {
		t.Fatalf("second stall episode fired %d times, want 1", len(fired))
	}
}

func TestStallIgnoresFinalPartialInterval(t *testing.T) {
	st := NewStore(Config{StallIntervals: 1})
	s := mk(0, 0, nil, map[string]int64{"engine.in_flight": 10})
	s.Final = true
	if fired := st.Append(s); len(fired) != 0 {
		t.Fatalf("final partial interval fired %v, want nothing", fired)
	}
}

func TestRetryStormDetector(t *testing.T) {
	st := NewStore(Config{})
	quiet := map[string]int64{"engine.launched": 100, "engine.retries": 3, "engine.completed": 90}
	storm := map[string]int64{"engine.launched": 10, "engine.retries": 9, "engine.completed": 5}

	if fired := st.Append(mk(0, 0, quiet, nil)); len(fired) != 0 {
		t.Fatalf("quiet interval fired %v", fired)
	}
	fired := st.Append(mk(0, 1, storm, nil))
	if len(fired) != 1 || fired[0].Kind != KindRetryStorm {
		t.Fatalf("storm interval fired %v, want one retry-storm", fired)
	}
	if fired := st.Append(mk(0, 2, storm, nil)); len(fired) != 0 {
		t.Fatalf("sustained storm re-fired %v, want edge-triggered silence", fired)
	}
	st.Append(mk(0, 3, quiet, nil))
	if fired := st.Append(mk(0, 4, storm, nil)); len(fired) != 1 {
		t.Fatalf("new storm episode fired %v, want one", fired)
	}
}

func TestDropSpikeDetector(t *testing.T) {
	st := NewStore(Config{DropSpikeRate: 0.10})
	calm := map[string]int64{"netsim.packets_sent": 1000, "netsim.packets_lost": 5, "engine.completed": 1}
	spike := map[string]int64{"netsim.packets_sent": 1000, "netsim.packets_lost": 150, "engine.completed": 1}
	tiny := map[string]int64{"netsim.packets_sent": 10, "netsim.packets_lost": 9, "engine.completed": 1}

	if fired := st.Append(mk(0, 0, tiny, nil)); len(fired) != 0 {
		t.Fatalf("below-volume interval fired %v", fired)
	}
	if fired := st.Append(mk(0, 1, calm, nil)); len(fired) != 0 {
		t.Fatalf("calm interval fired %v", fired)
	}
	fired := st.Append(mk(0, 2, spike, nil))
	if len(fired) != 1 || fired[0].Kind != KindDropSpike {
		t.Fatalf("spike interval fired %v, want one drop-spike", fired)
	}
	if fired := st.Append(mk(0, 3, spike, nil)); len(fired) != 0 {
		t.Fatalf("sustained spike re-fired %v", fired)
	}
}

func TestShardSkewDetector(t *testing.T) {
	st := NewStore(Config{SkewRatio: 4})
	fast := map[string]int64{"engine.completed": 200}
	slow := map[string]int64{"engine.completed": 10}

	// Skew needs every shard's sample for the index; firing happens on
	// the append that completes the index.
	if fired := st.Append(mk(0, 0, fast, nil)); len(fired) != 0 {
		t.Fatalf("incomplete index fired %v", fired)
	}
	fired := st.Append(mk(1, 0, slow, nil))
	if len(fired) != 1 || fired[0].Kind != KindShardSkew || fired[0].Shard != -1 {
		t.Fatalf("completing skewed index fired %v, want one cross-shard skew", fired)
	}
	if !strings.Contains(fired[0].Detail, "shard 0") || !strings.Contains(fired[0].Detail, "shard 1") {
		t.Fatalf("skew detail %q should name both shards", fired[0].Detail)
	}

	// Balanced intervals stay silent.
	st.Append(mk(0, 1, fast, nil))
	if fired := st.Append(mk(1, 1, map[string]int64{"engine.completed": 180}, nil)); len(fired) != 0 {
		t.Fatalf("balanced index fired %v", fired)
	}
}

func TestAnomalyBoundCountsDrops(t *testing.T) {
	st := NewStore(Config{MaxAnomalies: 1, StallIntervals: 1})
	inflight := map[string]int64{"engine.in_flight": 10}
	st.Append(mk(0, 0, nil, inflight))                                // fires, retained
	st.Append(mk(0, 1, map[string]int64{"engine.completed": 1}, nil)) // resets
	st.Append(mk(0, 2, nil, inflight))                                // fires, dropped

	anoms, dropped := st.Anomalies()
	if len(anoms) != 1 || dropped != 1 {
		t.Fatalf("retained %d anomalies with %d dropped, want 1 and 1", len(anoms), dropped)
	}
	total, byKind, last := st.AnomalySummary()
	if total != 2 || byKind[KindStall] != 2 {
		t.Fatalf("summary total=%d byKind=%v, want 2 stalls counted despite the bound", total, byKind)
	}
	if last == nil || last.Kind != KindStall {
		t.Fatalf("summary last = %+v, want the retained stall", last)
	}
}

func TestJSONLRoundTripAndVerify(t *testing.T) {
	var buf bytes.Buffer
	st := NewStore(Config{StallIntervals: 1})
	st.StreamJSONL(&buf)
	st.Append(mk(0, 0, map[string]int64{"engine.launched": 4}, map[string]int64{"engine.in_flight": 2})) // stall fires
	st.Append(mk(1, 0, map[string]int64{"engine.completed": 4}, nil))
	if err := st.CloseStream(); err != nil {
		t.Fatalf("CloseStream: %v", err)
	}

	samples, anomalies, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(samples) != 2 || len(anomalies) != 1 {
		t.Fatalf("round-trip got %d samples / %d anomalies, want 2 / 1", len(samples), len(anomalies))
	}
	if samples[0].Shard != 0 || samples[0].C("engine.launched") != 4 {
		t.Fatalf("first sample did not survive the round trip: %+v", samples[0])
	}
	if err := VerifyStream(samples, anomalies, 2, true); err != nil {
		t.Fatalf("VerifyStream: %v", err)
	}
	if err := VerifyStream(samples, anomalies, 3, false); err == nil {
		t.Fatalf("VerifyStream should reject a stream missing shard 2")
	}
	if err := VerifyStream(samples, nil, 2, true); err == nil {
		t.Fatalf("VerifyStream should reject a stream without anomalies when one is required")
	}
	if err := VerifyStream(nil, nil, 0, false); err == nil {
		t.Fatalf("VerifyStream should reject an empty stream")
	}
}

func TestReadJSONLRejectsUnknownType(t *testing.T) {
	if _, _, err := ReadJSONL(strings.NewReader(`{"type":"mystery"}` + "\n")); err == nil {
		t.Fatalf("unknown line type should be an error")
	}
}

func TestVerifyStreamAllowsResumeRestart(t *testing.T) {
	// A resumed scan appends a fresh run to the same file: indexes
	// restart at zero, which the verifier must tolerate.
	samples := []Sample{mk(0, 0, nil, nil), mk(0, 1, nil, nil), mk(0, 0, nil, nil), mk(0, 1, nil, nil)}
	if err := VerifyStream(samples, nil, 1, false); err != nil {
		t.Fatalf("VerifyStream rejected a resumed (restarted-index) stream: %v", err)
	}
	bad := []Sample{mk(0, 0, nil, nil), mk(0, 2, nil, nil), mk(0, 1, nil, nil)}
	if err := VerifyStream(bad, nil, 1, false); err == nil {
		t.Fatalf("VerifyStream should reject out-of-order non-zero indexes")
	}
}

// TestSamplerOnNetwork runs a real sampler against a live simulation:
// counters bumped by scheduled timers must land in the matching
// intervals as deltas, and Stop must emit the final partial sample.
func TestSamplerOnNetwork(t *testing.T) {
	n := netsim.New(1)
	st := NewStore(Config{Interval: 100 * netsim.Millisecond})
	s := Attach(n, st, 0)
	s.AddProbe(func(set func(string, int64)) { set("test.probe", 42) })

	launched := n.Metrics().Counter("engine.launched")
	// 3 launches in interval 0, 5 in interval 1, none later.
	n.At(10*netsim.Millisecond, func() { launched.Add(3) })
	n.At(150*netsim.Millisecond, func() { launched.Add(5) })
	n.At(320*netsim.Millisecond, func() { s.Stop() })
	n.RunUntilIdle()

	samples, _ := st.Series(0)
	if len(samples) != 4 {
		t.Fatalf("got %d samples, want 4 (3 full intervals + final partial)", len(samples))
	}
	if got := samples[0].C("engine.launched"); got != 3 {
		t.Fatalf("interval 0 launched delta = %d, want 3", got)
	}
	if got := samples[1].C("engine.launched"); got != 5 {
		t.Fatalf("interval 1 launched delta = %d, want 5", got)
	}
	if got := samples[2].C("engine.launched"); got != 0 {
		t.Fatalf("interval 2 launched delta = %d, want 0 (zero deltas omitted)", got)
	}
	last := samples[len(samples)-1]
	if !last.Final {
		t.Fatalf("closing sample not marked Final: %+v", last)
	}
	if got := last.EndNS; got != int64(320*netsim.Millisecond) {
		t.Fatalf("final sample EndNS = %d, want stop time %d", got, int64(320*netsim.Millisecond))
	}
	for i, smp := range samples {
		if smp.G("test.probe") != 42 {
			t.Fatalf("sample %d missing probe gauge: %+v", i, smp.Gauges)
		}
		if _, ok := smp.Gauges["runtime.heap_alloc"]; !ok {
			t.Fatalf("sample %d missing heap gauge", i)
		}
		if _, ok := smp.Gauges["netsim.event_queue"]; !ok {
			t.Fatalf("sample %d missing event-queue gauge", i)
		}
	}
	// Stop is idempotent and the timer is gone: the queue must be empty.
	s.Stop()
	if n.QueueLen() != 0 {
		t.Fatalf("event queue still has %d entries after Stop", n.QueueLen())
	}
}

// TestPoolSeriesMergeAdditively: packet-pool counters are per-shard
// registry series since the pool split, so the merged view must be the
// exact sum of the shard series — the property that replaced the old
// single-recorder "pool lead" discipline.
func TestPoolSeriesMergeAdditively(t *testing.T) {
	st := NewStore(Config{})
	st.Append(mk(0, 0, map[string]int64{"netsim.packets_pooled": 40, "netsim.pool_miss": 3}, nil))
	st.Append(mk(1, 0, map[string]int64{"netsim.packets_pooled": 25, "netsim.pool_miss": 7}, nil))
	merged := st.Merged()
	if len(merged) != 1 {
		t.Fatalf("merged has %d intervals, want 1", len(merged))
	}
	if got := merged[0].C("netsim.packets_pooled"); got != 65 {
		t.Fatalf("merged packets_pooled = %d, want 65", got)
	}
	if got := merged[0].C("netsim.pool_miss"); got != 10 {
		t.Fatalf("merged pool_miss = %d, want 10", got)
	}
}

func TestDashboardHTMLSelfContained(t *testing.T) {
	html := DashboardHTML()
	for _, want := range []string{"/timeseries", "prefers-color-scheme", "engine.launched", "shard-skew"} {
		if !strings.Contains(html, want) {
			t.Fatalf("dashboard HTML missing %q", want)
		}
	}
	for _, banned := range []string{"http://", "https://", "src="} {
		if strings.Contains(html, banned) {
			t.Fatalf("dashboard HTML must be self-contained; found %q", banned)
		}
	}
}
