package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestPickPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 50}, {7, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {120, 90}, {200, 95}, {220, 95}, {1000, 99},
	} {
		if got := pickPercentile(c.n); got != c.want {
			t.Errorf("pickPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
		if p := pickPercentile(c.n); p > 50 && beyond(c.n, p) < 10 {
			t.Errorf("p%d of %d samples leaves %d beyond it, want >= 10", p, c.n, beyond(c.n, p))
		}
	}
	// The catalogue's own tail figures rest on enough samples: 220 rescans
	// for a p95, 120 jobs for a p90.
	if beyond(220, 95) < 10 || beyond(120, 90) < 10 {
		t.Errorf("beyond(220, 95) = %d, beyond(120, 90) = %d, want >= 10 each", beyond(220, 95), beyond(120, 90))
	}
}

func TestSupported(t *testing.T) {
	for _, c := range []struct{ n, p, want int }{{8, 95, 50}, {120, 95, 90}, {120, 90, 90}, {220, 95, 95}, {1000, 95, 95}} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %d) = p%d, want p%d", c.n, c.p, got, c.want)
		}
	}
}

// Four blocks, the second and the fourth inside a burst: the quiet half
// is the other two, remainder included, and a short run stays whole.
func TestQuietHalf(t *testing.T) {
	var ops []float64
	for i := 0; i < 4*quietBlock+3; i++ {
		v := 50 + float64(i%3)
		if b := i / quietBlock; b == 1 || b >= 3 {
			v += 40
		}
		ops = append(ops, v)
	}
	kept := quietHalf(ops)
	if len(kept) != 2*quietBlock {
		t.Fatalf("kept %d ops, want %d", len(kept), 2*quietBlock)
	}
	for _, v := range kept {
		if v > 52 {
			t.Errorf("kept an op from inside a burst: %v", v)
		}
	}
	if p := percentile(ops, 95); p < 90 {
		t.Errorf("whole-run p95 = %v: the bursts should dominate it", p)
	}
	if p := percentile(kept, 95); p != 52 {
		t.Errorf("quiet-half p95 = %v, want 52", p)
	}
	// Seven census reps are ranked one by one: the better four stay.
	reps := []float64{2.3, 2.0, 2.6, 2.1, 2.2, 3.1, 1.9}
	if got := sorted(quietHalf(reps)); len(got) != 4 || got[0] != 1.9 || got[3] != 2.2 {
		t.Errorf("quiet half of %v = %v, want the four fastest", reps, got)
	}
	if got := quietHalf(reps[:1]); len(got) != 1 {
		t.Errorf("a single rep became %v", got)
	}
}

func TestPercentileIsAnObservedSample(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[int]float64{50: 3, 90: 5, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v, %d) = %v, want %v", xs, p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// A hand-built tree:
//
//	run [0,100)
//	  core.handle [10,40)
//	    probe_target [15,25)
//	  tcpstack.handle [50,70)
//	enrich [100,104)          (a second root)
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Start: 0, End: 100, Parent: -1, Layer: layerRun},
		{Start: 10, End: 40, Parent: 0, Layer: layerCoreHandle},
		{Start: 15, End: 25, Parent: 1, Layer: layerProbeTarget},
		{Start: 50, End: 70, Parent: 0, Layer: layerHostPacket},
		{Start: 100, End: 104, Parent: -1, Layer: layerEnrich},
	}
	lt := selfTimes(spans)
	want := map[layer]int64{layerRun: 50, layerCoreHandle: 20, layerProbeTarget: 10, layerHostPacket: 20, layerEnrich: 4}
	for l := layer(0); l < numLayers; l++ {
		if lt.SelfNS[l] != want[l] {
			t.Errorf("self time of %s = %d, want %d", layerNames[l], lt.SelfNS[l], want[l])
		}
	}
	// Self times partition the roots' durations.
	if lt.total() != 104 {
		t.Errorf("ledger total = %d, want 104", lt.total())
	}
	if lt.Count[layerRun] != 1 || lt.Count[layerCoreHandle] != 1 {
		t.Errorf("span counts = %v", lt.Count)
	}
}

func TestTracerNestsByCallStack(t *testing.T) {
	tr := newTracer(4)
	a := tr.begin(layerRun, 0)
	b := tr.begin(layerCoreHandle, 7)
	tr.end(b)
	c := tr.begin(layerHostPacket, 8)
	tr.end(c)
	tr.end(a)
	for id, want := range []int32{-1, a, a} {
		if got := tr.spans[id].Parent; got != want {
			t.Errorf("span %d has parent %d, want %d", id, got, want)
		}
	}
	for id, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %d ends before it starts: %+v", id, s)
		}
	}
}

func TestVerdict(t *testing.T) {
	def := metricDef{Name: "probes_per_s", Unit: "probes/s", Better: "higher", Bound: 0.10}
	mk := func(v float64, s summary) metricValue { return metricValue{metricDef: def, Value: v, Samples: s} }
	steady := func(v float64) summary {
		return summary{N: 7, Median: v, Q1: v * 0.99, Q3: v * 1.01, Min: v * 0.98, Max: v * 1.02}
	}
	noisy := func(v float64) summary {
		return summary{N: 7, Median: v, Q1: v * 0.9, Q3: v * 1.1, Min: v * 0.7, Max: v * 1.3}
	}
	for _, c := range []struct {
		name string
		a, b metricValue
		want string
	}{
		{"better", mk(100, steady(100)), mk(120, steady(120)), "ok"},
		{"worse within the bound", mk(100, steady(100)), mk(92, steady(92)), "ok"},
		{"worse beyond the bound", mk(100, steady(100)), mk(80, steady(80)), "regressed"},
		{"worse but too noisy to tell", mk(100, noisy(100)), mk(80, noisy(80)), "unresolved"},
	} {
		if _, got := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	lower := metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25}
	a := metricValue{metricDef: lower, Value: 1, Samples: steady(1)}
	b := metricValue{metricDef: lower, Value: 1.5, Samples: steady(1.5)}
	if delta, got := verdict(a, b); got != "regressed" || delta != 0.5 {
		t.Errorf("setup_s 1 -> 1.5: %+.2f %q, want +0.50 regressed", delta, got)
	}
}

// benchmarkFile is the part of ../BENCHMARK.json the catalogue in this
// package must agree with.
type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestCatalogue(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	for _, w := range workloads {
		check("workload", w.name)
		if len(w.why) == 0 || len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1..200", w.name, len(w.why))
		}
	}
	var setup bool
	for _, m := range endToEnd {
		check("end-to-end metric", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || m == metricDef{"setup_s", "s", "lower", m.Bound}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range perLayer {
		check("per-layer metric", m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %s", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the catalogue %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q, the catalogue's is %q (or their reasons differ)", i, w.Name, workloads[i].name)
		}
	}
	sameDefs := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the catalogue %d", len(got), kind, len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("BENCHMARK.json %s metric %d is %+v, the catalogue's is %+v", kind, i, got[i], want[i])
			}
		}
	}
	sameDefs("end-to-end", file.EndToEnd, endToEnd)
	sameDefs("per-layer", file.PerLayer, perLayer)
}

// TestQuickPass runs every workload at smoke size, untraced and traced,
// with every correctness gate on.
func TestQuickPass(t *testing.T) {
	var all []*workload
	for i := range workloads {
		all = append(all, &workloads[i])
	}
	start := time.Now()
	for _, traced := range []bool{false, true} {
		e := &env{seed: 9, quick: true, workdir: t.TempDir()}
		rep, err := run(e, all, 0, traced, "")
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if len(rep.Workloads) != len(workloads) {
			t.Fatalf("traced=%v: %d workloads reported, want %d", traced, len(rep.Workloads), len(workloads))
		}
		want := len(endToEnd)
		if traced {
			want = len(perLayer)
		}
		for _, w := range rep.Workloads {
			if w.Failed != 0 || w.Attempted < 1 {
				t.Errorf("traced=%v %s: %d attempted, %d failed", traced, w.Name, w.Attempted, w.Failed)
			}
			if len(w.Metrics) != want {
				t.Errorf("traced=%v %s: %d metrics, want %d", traced, w.Name, len(w.Metrics), want)
			}
			if !traced && w.Name != "serve_jobs" && w.Digest == "" {
				t.Errorf("%s: no IWB1 digest recorded", w.Name)
			}
		}
		if !traced && rep.Workloads[0].Digest != rep.Workloads[2].Digest {
			t.Errorf("census_sharded wrote %s, census_http %s", rep.Workloads[2].Digest, rep.Workloads[0].Digest)
		}
	}
	if d := time.Since(start); d > 5*time.Second && !testing.Short() {
		t.Logf("quick pass took %v, want < 5s on a quiet host", d)
	}
}
