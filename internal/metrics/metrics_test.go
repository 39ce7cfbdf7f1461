package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("a.b") != c {
		t.Fatal("lookup did not return the same counter")
	}
	g := r.Gauge("g")
	g.Add(3)
	g.Add(4)
	g.Add(-5)
	if g.Value() != 2 || g.Max() != 7 {
		t.Fatalf("gauge = %d max %d, want 2 max 7", g.Value(), g.Max())
	}
	g.Set(1)
	if g.Value() != 1 || g.Max() != 7 {
		t.Fatalf("set broke gauge: %d/%d", g.Value(), g.Max())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	for _, v := range []int64{0, 1, 2, 3, 4, 1023, 1024, -7} {
		h.Observe(v)
	}
	v := h.Value()
	if v.Count != 8 {
		t.Fatalf("count = %d", v.Count)
	}
	if v.Min != 0 || v.Max != 1024 {
		t.Fatalf("min/max = %d/%d", v.Min, v.Max)
	}
	if v.Sum != 0+1+2+3+4+1023+1024+0 {
		t.Fatalf("sum = %d", v.Sum)
	}
	want := map[int64]int64{
		0:    2, // 0 and the clamped -7
		1:    1, // 1
		3:    2, // [2,3] holds 2 and 3
		7:    1, // [4,7] holds 4
		1023: 1,
		2047: 1, // 1024 lands in [1024,2047]
	}
	got := make(map[int64]int64)
	for _, b := range v.Buckets {
		got[b.Bound] = b.Count
	}
	for bound, count := range want {
		if got[bound] != count {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", bound, got[bound], count, v.Buckets)
		}
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	h := &Histogram{}
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	v := h.Value()
	if m := v.Mean(); m < 500 || m > 501 {
		t.Fatalf("mean = %v", m)
	}
	// Log buckets give factor-of-two accuracy: the true p50 is 500, the
	// estimate must land in [500, 1023].
	if q := v.Quantile(0.5); q < 500 || q > 1023 {
		t.Fatalf("p50 = %d", q)
	}
	if q := v.Quantile(1); q != 1000 {
		t.Fatalf("p100 = %d, want clamped max 1000", q)
	}
	if q := v.Quantile(0); q < 1 {
		t.Fatalf("p0 = %d", q)
	}
}

func TestSnapshotMergeEqualsCombined(t *testing.T) {
	// Two shards observing disjoint halves must merge to the same
	// snapshot as one registry observing everything.
	a, b, all := NewRegistry(), NewRegistry(), NewRegistry()
	for i := int64(0); i < 100; i++ {
		shard := a
		if i%2 == 1 {
			shard = b
		}
		shard.Counter("c").Inc()
		shard.Histogram("h").Observe(i * 1000)
		all.Counter("c").Inc()
		all.Histogram("h").Observe(i * 1000)
	}
	merged := a.Snapshot()
	merged.Merge(b.Snapshot())
	want := all.Snapshot()
	if merged.Counters["c"] != want.Counters["c"] {
		t.Fatalf("counter merge: %d vs %d", merged.Counters["c"], want.Counters["c"])
	}
	mh, wh := merged.Histograms["h"], want.Histograms["h"]
	if mh.Count != wh.Count || mh.Sum != wh.Sum || mh.Min != wh.Min || mh.Max != wh.Max {
		t.Fatalf("histogram merge: %+v vs %+v", mh, wh)
	}
	if len(mh.Buckets) != len(wh.Buckets) {
		t.Fatalf("bucket lists differ: %v vs %v", mh.Buckets, wh.Buckets)
	}
	for i := range mh.Buckets {
		if mh.Buckets[i] != wh.Buckets[i] {
			t.Fatalf("bucket %d differs: %v vs %v", i, mh.Buckets[i], wh.Buckets[i])
		}
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("net.sent").Add(7)
	r.Gauge("in_flight").Set(3)
	r.Histogram("rtt_ns").Observe(20_000_000)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["net.sent"] != 7 || back.Gauges["in_flight"].Value != 3 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Histograms["rtt_ns"].Count != 1 {
		t.Fatalf("histogram lost: %+v", back.Histograms["rtt_ns"])
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("netsim.packets_sent").Add(42)
	r.Gauge("engine.in_flight").Set(9)
	h := r.Histogram("core.rtt_ns")
	h.Observe(3)
	h.Observe(100)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE netsim_packets_sent counter",
		"netsim_packets_sent 42",
		"engine_in_flight 9",
		"engine_in_flight_max 9",
		"core_rtt_ns_bucket{le=\"+Inf\"} 2",
		"core_rtt_ns_sum 103",
		"core_rtt_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets: the le="127" bucket (holding 100) must count
	// both observations.
	if !strings.Contains(out, "core_rtt_ns_bucket{le=\"127\"} 2") {
		t.Fatalf("bucket not cumulative:\n%s", out)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	// Exercised under -race in CI: concurrent increments and snapshots.
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(int64(i))
			}
		}()
	}
	for i := 0; i < 10; i++ {
		_ = r.Snapshot()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["c"] != 4000 || s.Histograms["h"].Count != 4000 {
		t.Fatalf("lost updates: %+v", s.Counters)
	}
}
