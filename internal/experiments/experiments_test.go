package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"iwscan/internal/analysis"
	"iwscan/internal/core"
	"iwscan/internal/inet"
	"iwscan/internal/metrics"
	"iwscan/internal/wire"
)

// testSuite runs the shared sampled scans once for the whole package.
var testSuite = NewSuite(2017, 0.05)

func near(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.3f, want %.3f ± %.3f", name, got, want, tol)
	}
}

func TestTable1Shapes(t *testing.T) {
	r := testSuite.Table1()
	t.Log("\n" + r.Render())
	// HTTP: roughly half succeed, the gap is few-data, errors are small.
	near(t, "HTTP success", r.HTTP.Success, PaperTable1.HTTPSuccess, 0.07)
	near(t, "HTTP few-data", r.HTTP.FewData, PaperTable1.HTTPFewData, 0.07)
	if r.HTTP.Error > 0.04 {
		t.Errorf("HTTP error rate %.3f too high", r.HTTP.Error)
	}
	// TLS: much higher success than HTTP (the paper's key methodological
	// finding), small few-data share.
	near(t, "TLS success", r.TLS.Success, PaperTable1.TLSSuccess, 0.06)
	if r.TLS.Success <= r.HTTP.Success+0.15 {
		t.Errorf("TLS success (%.2f) should clearly exceed HTTP (%.2f)", r.TLS.Success, r.HTTP.Success)
	}
}

func TestFigure3Shapes(t *testing.T) {
	r := testSuite.Figure3()
	t.Log("\n" + r.Render())
	for _, tc := range []struct {
		name string
		got  map[int]float64
		want map[int]float64
		tol  float64
	}{
		{"HTTP", r.HTTPDist, PaperFigure3HTTP, 0.06},
		{"TLS", r.TLSDist, PaperFigure3TLS, 0.06},
	} {
		dom := 0.0
		for _, iw := range []int{1, 2, 4, 10} {
			near(t, fmt.Sprintf("%s IW%d", tc.name, iw), tc.got[iw], tc.want[iw], tc.tol)
			dom += tc.got[iw]
		}
		// "These IWs are present at more than 97% of all scanned hosts."
		if dom < 0.93 {
			t.Errorf("%s: IW 1/2/4/10 cover only %.1f%% of successes", tc.name, 100*dom)
		}
		// IW10 dominates everything else.
		if tc.got[10] < tc.got[1] || tc.got[10] < tc.got[2] || tc.got[10] < tc.got[4] {
			t.Errorf("%s: IW10 (%.2f) is not the dominant value", tc.name, tc.got[10])
		}
	}
	// TLS has relatively more IW4 than HTTP; HTTP more IW10 (paper §4.1).
	if r.TLSDist[4] <= r.HTTPDist[4] {
		t.Errorf("TLS IW4 share (%.2f) should exceed HTTP's (%.2f)", r.TLSDist[4], r.HTTPDist[4])
	}
	// Most dual-service hosts agree.
	if r.Agreement.Dual > 20 {
		frac := float64(r.Agreement.Agreeing) / float64(r.Agreement.Dual)
		if frac < 0.75 {
			t.Errorf("dual-host agreement %.2f, want most hosts agreeing", frac)
		}
	}
}

func TestFigure3SamplingIsEnough(t *testing.T) {
	r := testSuite.Figure3()
	// Every subsample reproduces the full distribution closely. The
	// paper's 1%-is-enough claim refers to 1% of ~24M successes; at this
	// test's scale a 1% subsample is a few dozen hosts, so the unit test
	// asserts the 10-50% subsamples and cmd/experiments exercises the
	// full-scale 1% result.
	for _, f := range SubsampleFractions[1:4] {
		dev := maxDevMap(r.HTTPDist, r.HTTPSubsamples[f])
		if dev > 0.05 {
			t.Errorf("HTTP %.0f%% subsample deviates %.3f from full distribution", 100*f, dev)
		}
	}
	// The 30-replicate 1% bands must straddle the full value for the
	// dominant IWs.
	for _, st := range r.HTTPReplicates {
		if st.FullFrac < 0.05 {
			continue
		}
		if st.FullFrac < st.Q01-0.03 || st.FullFrac > st.Q99+0.03 {
			t.Errorf("IW%d: full fraction %.3f outside 1%%-replicate band [%.3f, %.3f]",
				st.IW, st.FullFrac, st.Q01, st.Q99)
		}
	}
}

func TestTable2Shapes(t *testing.T) {
	r := testSuite.Table2()
	t.Log("\n" + r.Render())
	// HTTP: bound 7 dominates by far (default error pages on IW-10 hosts).
	maxB := 0
	for i := 2; i <= 10; i++ {
		if r.HTTP.Bound[i] > r.HTTP.Bound[maxB+1] {
			maxB = i - 1
		}
	}
	if r.HTTP.Bound[7] < 0.30 {
		t.Errorf("HTTP bound-7 share %.2f, want the dominant spike (paper 0.45)", r.HTTP.Bound[7])
	}
	for i := 1; i <= 10; i++ {
		if i != 7 && r.HTTP.Bound[i] > r.HTTP.Bound[7] {
			t.Errorf("HTTP bound %d (%.2f) exceeds bound 7 (%.2f)", i, r.HTTP.Bound[i], r.HTTP.Bound[7])
		}
	}
	// TLS: bound 1 dominates (alert-only hosts), NoData is large
	// (SNI-requiring hosts) — both far above the other bounds.
	if r.TLS.Bound[1] < 0.35 {
		t.Errorf("TLS bound-1 share %.2f, want dominant (paper 0.56)", r.TLS.Bound[1])
	}
	near(t, "TLS NoData", r.TLS.NoData, PaperTable2.TLSNoData, 0.08)
	if r.TLS.NoData < 2*r.HTTP.NoData {
		t.Errorf("TLS NoData (%.2f) should be several times HTTP's (%.2f)", r.TLS.NoData, r.HTTP.NoData)
	}
}

func TestFigure2Shapes(t *testing.T) {
	r := Figure2(7, 100000)
	t.Log("\n" + r.Render())
	near(t, "mean chain", r.Mean, PaperFigure2.MeanChain, 200)
	near(t, "IW10 coverage", r.CoverageMSS64[10], PaperFigure2.CoverageIW10, 0.03)
	near(t, "IW34 coverage", r.CoverageMSS64[34], PaperFigure2.CoverageIW34, 0.04)
	if r.Min < 36 || r.Max > 65000 {
		t.Errorf("chain bounds [%d, %d] outside the paper's [36, 65000]", r.Min, r.Max)
	}
	// MSS-1336 coverage collapses: a typical-MSS scan can verify almost
	// no host even at IW 4 — the motivation for announcing MSS 64.
	if r.CoverageMSS1336[4] > 0.35 {
		t.Errorf("IW4@MSS1336 coverage %.2f; should be far below the MSS-64 equivalents", r.CoverageMSS1336[4])
	}
}

func TestFigure4Shapes(t *testing.T) {
	r := testSuite.Figure4(1500)
	t.Log("\n" + r.Render())
	// Popular hosts: success rises markedly vs the whole-IPv4 HTTP scan,
	// and IW10 dominates at much higher share.
	full := testSuite.Table1()
	if r.HTTP.Success < full.HTTP.Success+0.10 {
		t.Errorf("popular HTTP success %.2f should clearly exceed IPv4-wide %.2f", r.HTTP.Success, full.HTTP.Success)
	}
	if r.HTTPDist[10] < 0.70 {
		t.Errorf("popular HTTP IW10 share %.2f, want >= 0.70 (paper >0.85)", r.HTTPDist[10])
	}
	if r.TLSDist[10] < 0.65 {
		t.Errorf("popular TLS IW10 share %.2f, want >= 0.65 (paper 0.80)", r.TLSDist[10])
	}
}

func TestFigure5Shapes(t *testing.T) {
	r := testSuite.Figure5()
	t.Log("\n" + r.Render())
	if len(r.HTTPClusters) < 2 {
		t.Fatalf("HTTP clustering found %d clusters, want >= 2", len(r.HTTPClusters))
	}
	// There must be an IW10-dominant cluster (content infrastructure)
	// and a non-IW10 cluster (legacy/access networks).
	doms := map[string]bool{}
	for _, c := range r.HTTPClusters {
		doms[analysis.DominantIWOfCluster(c)] = true
	}
	if !doms["IW10"] {
		t.Error("no IW10-dominant HTTP cluster")
	}
	if len(doms) < 2 {
		t.Errorf("all clusters share one dominant IW: %v", doms)
	}
	// Representatives include the paper's showcased networks.
	if len(r.Representatives) < 5 {
		t.Errorf("only %d representative ASes resolved", len(r.Representatives))
	}
}

func TestTable3Shapes(t *testing.T) {
	r := testSuite.Table3()
	t.Log("\n" + r.Render())
	find := func(rows []analysis.ServiceRow, name string) *analysis.ServiceRow {
		for i := range rows {
			if rows[i].Service == name {
				return &rows[i]
			}
		}
		return nil
	}
	// Akamai TLS: 100% IW4.
	if row := find(r.TLS, "Akamai"); row == nil || row.IW[4] < 0.95 {
		t.Errorf("Akamai TLS should be ~100%% IW4: %+v", row)
	}
	// Cloudflare: ~100% IW10 on both.
	if row := find(r.HTTP, "Cloudflare"); row != nil && row.IW[10] < 0.95 {
		t.Errorf("Cloudflare HTTP IW10 = %.2f", row.IW[10])
	}
	// EC2: IW10-dominant.
	if row := find(r.HTTP, "EC2"); row == nil || row.IW[10] < 0.85 {
		t.Errorf("EC2 HTTP should be ~95%% IW10: %+v", row)
	}
	// Azure: IW4 leads IW10 on both services.
	if row := find(r.TLS, "Azure"); row == nil || row.IW[4] < row.IW[10] {
		t.Errorf("Azure TLS should be IW4-dominant: %+v", row)
	}
	// Access networks: HTTP IW2-dominant, TLS IW4-dominant (§4.3).
	if row := find(r.HTTP, "Access NW"); row == nil || row.IW[2] < row.IW[10] || row.IW[2] < row.IW[4] {
		t.Errorf("Access NW HTTP should be IW2-dominant: %+v", row)
	}
	if row := find(r.TLS, "Access NW"); row == nil || row.IW[4] < row.IW[2] {
		t.Errorf("Access NW TLS should be IW4-dominant: %+v", row)
	}
}

func TestByteLimitShapes(t *testing.T) {
	r := testSuite.ByteLimit()
	t.Log("\n" + r.Render())
	// About 1% of measurable hosts are byte-limited; the 4 kB group is
	// roughly half of them.
	if r.Stats.Fraction() < 0.003 || r.Stats.Fraction() > 0.03 {
		t.Errorf("byte-limited fraction %.4f, want ~0.01", r.Stats.Fraction())
	}
	if r.Stats.ByteLimited > 0 {
		fourKB := float64(r.Stats.FourKB) / float64(r.Stats.ByteLimited)
		if fourKB < 0.3 || fourKB > 0.75 {
			t.Errorf("4kB share of byte-limited hosts %.2f, want ~0.5", fourKB)
		}
	}
	// GoDaddy's static IW48 exists and is MSS-independent (hence not
	// counted as byte-limited).
	if r.GoDaddy48HTTP < 0.10 || r.GoDaddy48HTTP > 0.30 {
		t.Errorf("GoDaddy HTTP IW48 share %.2f, want ~0.20", r.GoDaddy48HTTP)
	}
	if r.GoDaddy48TLS < 0.20 || r.GoDaddy48TLS > 0.45 {
		t.Errorf("GoDaddy TLS IW48 share %.2f, want ~0.33", r.GoDaddy48TLS)
	}
}

func TestEfficiencyShapes(t *testing.T) {
	r := Efficiency(inet.NewInternet2017(99), 99, 0.02)
	t.Log("\n" + r.Render())
	if r.PortScanHours <= 0 || r.IWScanHours <= 0 {
		t.Fatal("extrapolation failed")
	}
	overhead := r.IWScanHours/r.PortScanHours - 1
	// Paper: ~10% overhead. Anything in (0, 35%) preserves the claim
	// that full-connection probing stays near port-scan speed.
	if overhead <= 0 || overhead > 0.35 {
		t.Errorf("IW-scan overhead %.0f%%, want small positive (~10%%)", 100*overhead)
	}
}

func TestValidationGroundTruth(t *testing.T) {
	r := Validation(5)
	t.Log("\n" + r.Render())
	if !r.AllCorrect() {
		t.Error("ground-truth validation failed (see log)")
	}
	for _, pt := range r.Loss {
		if pt.Overestimate != 0 {
			t.Errorf("loss %.3f: %d overestimates; loss must never inflate the IW", pt.LossRate, pt.Overestimate)
		}
	}
	// Zero loss: every probe exact.
	if r.Loss[0].Underestimate != 0 || r.Loss[0].Inconclusive != 0 {
		t.Errorf("lossless sweep not perfect: %+v", r.Loss[0])
	}
	// The 3-probe maximum rule recovers most tail-loss runs at
	// moderate loss.
	for _, pt := range r.Loss {
		if pt.LossRate > 0 && pt.LossRate <= 0.01 {
			frac := float64(pt.AggregateExact) / float64(pt.AggregateRuns)
			if frac < 0.80 {
				t.Errorf("loss %.3f: aggregate exactness %.2f, want >= 0.80", pt.LossRate, frac)
			}
		}
	}
}

func TestPathMTUShapes(t *testing.T) {
	r := PathMTU(testSuite.Universe, 11, 1200)
	t.Log("\n" + r.Render())
	near(t, "MSS1336 support", r.MSS1336Frac, PaperFigure2.MSS1336Support, 0.03)
	near(t, "MSS1436 support", r.MSS1436Frac, PaperFigure2.MSS1436Support, 0.05)
	if r.Discovered < r.Probed*9/10 {
		t.Errorf("only %d of %d discoveries converged", r.Discovered, r.Probed)
	}
}

func TestPopularListProperties(t *testing.T) {
	list := testSuite.Universe.PopularList(300)
	if len(list) != 300 {
		t.Fatalf("list size %d", len(list))
	}
	seen := map[string]bool{}
	for _, ph := range list {
		if seen[ph.Name] {
			t.Fatalf("duplicate name %s", ph.Name)
		}
		seen[ph.Name] = true
		spec := testSuite.Universe.HostAt(ph.Addr)
		if spec == nil || !spec.HTTPLive {
			t.Fatalf("popular host %s at %s not live on HTTP", ph.Name, ph.Addr)
		}
	}
}

func TestScanDeterminism(t *testing.T) {
	u := inet.NewInternet2017(77)
	a := RunScan(u, ScanConfig{Seed: 5, Strategy: core.StrategyHTTP, SampleFraction: 0.002})
	b := RunScan(u, ScanConfig{Seed: 5, Strategy: core.StrategyHTTP, SampleFraction: 0.002})
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.Addr != rb.Addr || ra.Outcome != rb.Outcome || ra.IW != rb.IW {
			t.Fatalf("record %d differs: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestAgreementJoin(t *testing.T) {
	http := []analysis.Record{
		{Addr: 1, Outcome: core.OutcomeSuccess, IW: 10},
		{Addr: 2, Outcome: core.OutcomeSuccess, IW: 4},
		{Addr: 3, Outcome: core.OutcomeFewData},
	}
	tls := []analysis.Record{
		{Addr: 1, Outcome: core.OutcomeSuccess, IW: 10},
		{Addr: 2, Outcome: core.OutcomeSuccess, IW: 10},
		{Addr: 3, Outcome: core.OutcomeSuccess, IW: 2},
	}
	got := analysis.Agreement(http, tls)
	if got.Dual != 2 || got.Agreeing != 1 {
		t.Fatalf("agreement = %+v", got)
	}
}

func TestAkamaiPerServiceShapes(t *testing.T) {
	r := AkamaiServices(testSuite.Universe, 3, 250)
	t.Log("\n" + r.Render())
	// Blind IP probing measures the IW-4 edges from their error pages,
	// but hostnames unlock the rest (the larger custom-IW services).
	if r.ArmedSuccess < r.BlindSuccess+0.15 {
		t.Errorf("hostname-armed success %.2f should far exceed blind %.2f", r.ArmedSuccess, r.BlindSuccess)
	}
	// Per-service customization: at least three distinct IW values, and
	// the paper's showcased 16 and 32 among them.
	if len(r.IWValues) < 3 {
		t.Errorf("only %d distinct IW values found: %v", len(r.IWValues), r.IWValues)
	}
	if r.IWValues[16] == 0 || r.IWValues[32] == 0 {
		t.Errorf("custom IW 16/32 services missing: %v", r.IWValues)
	}
}

func TestMotivationShapes(t *testing.T) {
	r := Motivation(3)
	t.Log("\n" + r.Render())
	// FCT decreases monotonically with IW, and IW 1 -> IW 10 saves
	// multiple RTTs on a 15-segment page.
	for i := 1; i < len(r.FCT); i++ {
		if r.FCT[i].FCT > r.FCT[i-1].FCT {
			t.Errorf("FCT rose from IW %d to IW %d", r.FCT[i-1].IW, r.FCT[i].IW)
		}
	}
	var fct1, fct10 float64
	for _, p := range r.FCT {
		switch p.IW {
		case 1:
			fct1 = p.RTTs
		case 10:
			fct10 = p.RTTs
		}
	}
	if fct1-fct10 < 2 {
		t.Errorf("IW1 (%.1f RTTs) vs IW10 (%.1f RTTs): want >= 2 RTTs saved", fct1, fct10)
	}
	// At the constrained link, small IWs pass cleanly while large IWs
	// overflow the queue.
	drops := map[int]int64{}
	for _, p := range r.Burst {
		drops[p.IW] = p.QueueDrops
		if !p.Complete {
			t.Errorf("IW %d download never completed", p.IW)
		}
	}
	if drops[4] != 0 {
		t.Errorf("IW 4 should fit the queue, got %d drops", drops[4])
	}
	if drops[40] == 0 && drops[64] == 0 {
		t.Error("aggressive IWs should overflow the shallow buffer")
	}
}

func TestParallelScanEqualsSharded(t *testing.T) {
	u := inet.NewInternet2017(55)
	cfg := ScanConfig{Seed: 9, Strategy: core.StrategyHTTP, SampleFraction: 0.004, MSSList: []int{64}, Repeats: 1}
	par := RunScanParallel(u, cfg, 4)

	// The union of the four shards run sequentially must match.
	var seq []analysis.Record
	for i := 0; i < 4; i++ {
		c := cfg
		c.Shard, c.Shards = uint64(i), 4
		seq = append(seq, RunScan(u, c).Records...)
	}
	if len(par.Records) != len(seq) {
		t.Fatalf("parallel %d records, sequential %d", len(par.Records), len(seq))
	}
	bySeq := map[wire.Addr]analysis.Record{}
	for _, r := range seq {
		bySeq[r.Addr] = r
	}
	for _, r := range par.Records {
		want, ok := bySeq[r.Addr]
		if !ok {
			t.Fatalf("parallel scanned %s, sequential did not", r.Addr)
		}
		if r.Outcome != want.Outcome || r.IW != want.IW {
			t.Fatalf("%s differs: parallel %s/%d vs sequential %s/%d",
				r.Addr, r.Outcome, r.IW, want.Outcome, want.IW)
		}
	}
	// Records are sorted for deterministic output.
	for i := 1; i < len(par.Records); i++ {
		if par.Records[i].Addr < par.Records[i-1].Addr {
			t.Fatal("parallel records not sorted")
		}
	}
}

// TestParallelMetricsMergeEqualsUnsharded: the merged per-shard
// registry snapshots must reproduce the unsharded run's counter totals
// and histogram observation counts exactly — probe behavior is
// per-target deterministic, so partitioning the permutation cannot
// change what is counted, only when.
func TestParallelMetricsMergeEqualsUnsharded(t *testing.T) {
	u := inet.NewInternet2017(55)
	cfg := ScanConfig{Seed: 9, Strategy: core.StrategyHTTP, SampleFraction: 0.004, MSSList: []int{64}, Repeats: 1}
	par := RunScanParallel(u, cfg, 4)
	single := RunScan(u, cfg)

	for _, name := range []string{
		"engine.launched", "engine.completed", "engine.skipped",
		"core.probes_started", "core.synacks", "core.retransmits", "core.verify_releases",
		"netsim.packets_sent", "netsim.packets_delivered", "netsim.bytes_sent",
	} {
		if got, want := par.Metrics.Counters[name], single.Metrics.Counters[name]; got != want {
			t.Errorf("counter %s: merged %d, unsharded %d", name, got, want)
		}
	}
	// Outcome taxa merge too: every counter present in one snapshot must
	// total the same in the other. The pool hit/miss split is the one
	// legitimate exception — four shards warm four free lists from cold,
	// so misses shift relative to one warm list — but the sum is exactly
	// the number of GetPacket calls, which partitioning cannot change.
	for name, want := range single.Metrics.Counters {
		if name == "netsim.packets_pooled" || name == "netsim.pool_miss" {
			continue
		}
		if got := par.Metrics.Counters[name]; got != want {
			t.Errorf("counter %s: merged %d, unsharded %d", name, got, want)
		}
	}
	parPool := par.Metrics.Counters["netsim.packets_pooled"] + par.Metrics.Counters["netsim.pool_miss"]
	singlePool := single.Metrics.Counters["netsim.packets_pooled"] + single.Metrics.Counters["netsim.pool_miss"]
	if parPool != singlePool {
		t.Errorf("pool gets (hits+misses): merged %d, unsharded %d", parPool, singlePool)
	}
	// Histogram observation counts match even though the observed values
	// (jitter-dependent timings) may differ between runs.
	for _, name := range []string{"core.rtt_ns", "core.probe.lifetime_ns", "engine.probe_duration_ns"} {
		if got, want := par.Metrics.Histograms[name].Count, single.Metrics.Histograms[name].Count; got != want {
			t.Errorf("histogram %s: merged count %d, unsharded %d", name, got, want)
		}
	}
}

// probeAggregates is the probe-lifecycle slice of a registry snapshot:
// the core.probe.outcome.* taxa counters, and the
// core.probe.phase.*_ns transition and core.probe.lifetime_ns
// histograms.
type probeAggregates struct {
	Counters   map[string]int64                  `json:"counters"`
	Histograms map[string]metrics.HistogramValue `json:"histograms"`
}

func probeMetrics(s metrics.Snapshot) probeAggregates {
	out := probeAggregates{Counters: map[string]int64{}, Histograms: map[string]metrics.HistogramValue{}}
	for name, v := range s.Counters {
		if strings.HasPrefix(name, "core.probe.outcome.") {
			out.Counters[name] = v
		}
	}
	for name, v := range s.Histograms {
		if strings.HasPrefix(name, "core.probe.phase.") || name == "core.probe.lifetime_ns" {
			out.Histograms[name] = v
		}
	}
	return out
}

// TestProbeMetricsMatchGolden pins the values of the probe-lifecycle
// aggregates, not only their names: every outcome counter and phase or
// lifetime histogram of two fixed-seed scans must equal the checked-in
// golden exactly, bucket for bucket, and no entry may appear or vanish.
func TestProbeMetricsMatchGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/probe-metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]probeAggregates
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	u := inet.NewInternet2017(55)
	// A clean HTTP scan, and a TLS scan through 2% loss whose
	// retransmits and timeouts reach the error and no-data taxa.
	for _, sc := range []struct {
		name string
		cfg  ScanConfig
	}{
		{"http", ScanConfig{Seed: 9, Strategy: core.StrategyHTTP, SampleFraction: 0.004}},
		{"tls_loss", ScanConfig{Seed: 9, Strategy: core.StrategyTLS, SampleFraction: 0.004, Loss: 0.02}},
	} {
		want, ok := golden[sc.name]
		if !ok {
			t.Fatalf("golden has no %q scan", sc.name)
		}
		got := probeMetrics(RunScan(u, sc.cfg).Metrics)
		diffMetricMaps(t, sc.name+" counter", got.Counters, want.Counters)
		diffMetricMaps(t, sc.name+" histogram", got.Histograms, want.Histograms)
	}
}

func diffMetricMaps[V any](t *testing.T, kind string, got, want map[string]V) {
	t.Helper()
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s %s missing", kind, name)
		case !reflect.DeepEqual(g, w):
			t.Errorf("%s %s = %+v, want %+v", kind, name, g, w)
		}
	}
	for name, g := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s %s = %+v, not in the golden", kind, name, g)
		}
	}
}

func TestParallelScanSingleShardFallback(t *testing.T) {
	u := inet.NewInternet2017(55)
	cfg := ScanConfig{Seed: 9, Strategy: core.StrategyHTTP, SampleFraction: 0.002, MSSList: []int{64}, Repeats: 1}
	a := RunScanParallel(u, cfg, 1)
	b := RunScan(u, cfg)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("fallback path diverged: %d vs %d", len(a.Records), len(b.Records))
	}
}

// TestAddressSpaceSamplingMatchesResultSubsampling reproduces §4.1's
// second sampling claim: drawing a random sample of the *probeable
// address space* up front (no prior knowledge of which hosts are live)
// yields the same IW distribution as subsampling a full scan's results.
func TestAddressSpaceSamplingMatchesResultSubsampling(t *testing.T) {
	full := testSuite.HTTPScan().Records
	fullDist := IWDistributionOf(full)

	pre := RunScan(testSuite.Universe, ScanConfig{
		Seed: 777, Strategy: core.StrategyHTTP, SampleFraction: testSuite.Sample * 0.3,
	})
	preDist := IWDistributionOf(pre.Records)

	for _, iw := range []int{1, 2, 4, 10} {
		d := fullDist[iw] - preDist[iw]
		if d < 0 {
			d = -d
		}
		if d > 0.06 {
			t.Errorf("IW %d: address-space sample %.3f vs full %.3f", iw, preDist[iw], fullDist[iw])
		}
	}
}

// IWDistributionOf is a thin alias keeping the test readable.
func IWDistributionOf(records []analysis.Record) map[int]float64 {
	return analysis.IWDistribution(records)
}

func TestTrendShapes(t *testing.T) {
	r := Trend(4, 0.04)
	t.Log("\n" + r.Render())
	// 2005: IW 2 dominates among successes, IW 10 absent.
	if r.Dist2005[2] < r.Dist2005[1] || r.Dist2005[2] < r.Dist2005[4] {
		t.Errorf("2005 should be IW2-dominant: %v", r.Dist2005)
	}
	if r.Dist2005[10] > 0.01 {
		t.Errorf("IW 10 share in 2005 = %.3f, should be ~0", r.Dist2005[10])
	}
	// IW 10 is effectively new; IW 4's growth exceeds IW 1's and IW 2's
	// (the paper: 4 and 10 gained the highest relative growth).
	if g, ok := r.Growth[10]; ok && g >= 0 && g < 3 {
		t.Errorf("IW 10 growth %.2f, want new or large", g)
	}
	if r.Growth[4] <= r.Growth[2] || r.Growth[4] <= r.Growth[1] {
		t.Errorf("IW 4 growth (%.2f) should exceed IW 1 (%.2f) and IW 2 (%.2f)",
			r.Growth[4], r.Growth[1], r.Growth[2])
	}
}
