// Benchmarks regenerating every table and figure of the paper, plus
// ablation benches for the methodology's design choices. Per-layer
// costs of the scan hot path (codec, permutation walk, event loop, host
// derivation, single-host probe) are measured by bench/ (bash
// bench/run.sh --trace 1), not here.
//
// The experiment benches measure the cost of reproducing each result at
// a reduced scan scale and report the headline quality metric alongside
// (via b.ReportMetric), so `go test -bench=.` doubles as a regression
// harness for both speed and fidelity.
package iwscan_test

import (
	"testing"

	"iwscan/internal/analysis"
	"iwscan/internal/core"
	"iwscan/internal/experiments"
	"iwscan/internal/inet"
	"iwscan/internal/stats"
	"iwscan/internal/tlssim"
)

// benchSample is the scan scale for the heavyweight experiment benches.
const benchSample = 0.02

// --- one bench per table / figure -------------------------------------------

// BenchmarkTable1ScanOverview reproduces Table 1: full HTTP and TLS
// scans with success/few-data/error classification.
func BenchmarkTable1ScanOverview(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(uint64(2017+i), benchSample)
		r := s.Table1()
		b.ReportMetric(100*r.HTTP.Success, "http-success-%")
		b.ReportMetric(100*r.TLS.Success, "tls-success-%")
	}
}

// BenchmarkFigure2CertChainCCDF reproduces Figure 2: the certificate
// chain length CCDF and its IW-coverage thresholds.
func BenchmarkFigure2CertChainCCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure2(uint64(i), 365000)
		b.ReportMetric(100*r.CoverageMSS64[10], "iw10-coverage-%")
	}
}

// BenchmarkFigure3IWDistribution reproduces Figure 3: the IW
// distribution with subsample-stability analysis.
func BenchmarkFigure3IWDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(uint64(2017+i), benchSample)
		r := s.Figure3()
		b.ReportMetric(100*r.HTTPDist[10], "http-iw10-%")
		b.ReportMetric(100*r.TLSDist[4], "tls-iw4-%")
	}
}

// BenchmarkTable2FewDataLowerBounds reproduces Table 2: lower bounds
// for few-data hosts.
func BenchmarkTable2FewDataLowerBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(uint64(2017+i), benchSample)
		r := s.Table2()
		b.ReportMetric(100*r.HTTP.Bound[7], "http-bound7-%")
		b.ReportMetric(100*r.TLS.Bound[1], "tls-bound1-%")
	}
}

// BenchmarkFigure4AlexaScan reproduces Figure 4: the popular-host scan
// with hostnames available.
func BenchmarkFigure4AlexaScan(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(uint64(2017+i), benchSample)
		r := s.Figure4(2000)
		b.ReportMetric(100*r.HTTPDist[10], "http-iw10-%")
	}
}

// BenchmarkFigure5ASClustering reproduces Figure 5: DBSCAN clustering
// of per-AS IW mixes.
func BenchmarkFigure5ASClustering(b *testing.B) {
	s := experiments.NewSuite(2017, benchSample)
	s.HTTPScan() // scans outside the timed region: this bench is about clustering
	s.TLSScan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := s.Figure5()
		b.ReportMetric(float64(len(r.HTTPClusters)), "http-clusters")
	}
}

// BenchmarkTable3ServiceClassification reproduces Table 3: per-service
// classification by IP range and reverse DNS.
func BenchmarkTable3ServiceClassification(b *testing.B) {
	s := experiments.NewSuite(2017, benchSample)
	s.HTTPScan()
	s.TLSScan()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := s.Table3()
		b.ReportMetric(float64(len(r.HTTP)+len(r.TLS)), "service-rows")
	}
}

// BenchmarkByteLimitDetection reproduces §4.2: byte-configured IW
// detection from paired-MSS scans.
func BenchmarkByteLimitDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuite(uint64(2017+i), benchSample)
		r := s.ByteLimit()
		b.ReportMetric(100*r.Stats.Fraction(), "byte-limited-%")
	}
}

// BenchmarkScanEfficiency reproduces §3.4: IW scan vs port scan packet
// budgets and extrapolated full-IPv4 durations.
func BenchmarkScanEfficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Efficiency(inet.NewInternet2017(uint64(2017+i)), uint64(i), 0.01)
		if r.PortScanHours > 0 {
			b.ReportMetric(100*(r.IWScanHours/r.PortScanHours-1), "iw-overhead-%")
		}
	}
}

// BenchmarkValidationGroundTruth reproduces §3.5: ground-truth testbed
// plus loss sweep.
func BenchmarkValidationGroundTruth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Validation(uint64(5 + i))
		ok := 0.0
		if r.AllCorrect() {
			ok = 1
		}
		b.ReportMetric(ok, "all-correct")
	}
}

// BenchmarkPathMTUDiscovery reproduces footnote 1: the RFC 1191 path
// MTU sweep.
func BenchmarkPathMTUDiscovery(b *testing.B) {
	u := inet.NewInternet2017(2017)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.PathMTU(u, uint64(11+i), 1000)
		b.ReportMetric(100*r.MSS1336Frac, "mss1336-%")
	}
}

// BenchmarkMotivationFCT reproduces the §1 motivation: flow completion
// time vs IW plus burst overflow at a constrained link.
func BenchmarkMotivationFCT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Motivation(uint64(3 + i))
		if len(r.FCT) > 0 {
			b.ReportMetric(r.FCT[0].RTTs-r.FCT[len(r.FCT)-1].RTTs, "rtts-saved")
		}
	}
}

// BenchmarkAkamaiPerService reproduces the §4.3 per-service IW
// customization probe.
func BenchmarkAkamaiPerService(b *testing.B) {
	u := inet.NewInternet2017(2017)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.AkamaiServices(u, uint64(3+i), 200)
		b.ReportMetric(float64(len(r.IWValues)), "distinct-iws")
	}
}

// --- ablations of the methodology's design choices --------------------------

// BenchmarkAblationAnnouncedMSS compares scan success when announcing
// the paper's 64-byte MSS against a default-like 536 bytes: the small
// MSS is what makes most responses large enough to fill the IW.
func BenchmarkAblationAnnouncedMSS(b *testing.B) {
	for _, mss := range []int{64, 536} {
		b.Run(mssName(mss), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := inet.NewInternet2017(2017)
				res := experiments.RunScan(u, experiments.ScanConfig{
					Seed: uint64(7 + i), Strategy: core.StrategyHTTP,
					SampleFraction: benchSample, MSSList: []int{mss},
				})
				o := analysis.Table1(res.Records)
				b.ReportMetric(100*o.Success, "success-%")
			}
		})
	}
}

func mssName(mss int) string {
	if mss == 64 {
		return "mss64"
	}
	return "mss536"
}

// BenchmarkAblationHTTPFallbacks compares the full §3.2 strategy
// (redirect following + URI bloat) against plain GET /: the fallbacks
// buy a significant share of the successful estimations.
func BenchmarkAblationHTTPFallbacks(b *testing.B) {
	run := func(b *testing.B, noRedirect, noBloat bool) {
		for i := 0; i < b.N; i++ {
			u := inet.NewInternet2017(2017)
			res := experiments.RunScan(u, experiments.ScanConfig{
				Seed: uint64(9 + i), Strategy: core.StrategyHTTP,
				SampleFraction: benchSample, MSSList: []int{64},
				NoRedirectFollow: noRedirect, NoBloat: noBloat,
			})
			o := analysis.Table1(res.Records)
			b.ReportMetric(100*o.Success, "success-%")
		}
	}
	b.Run("full-strategy", func(b *testing.B) { run(b, false, false) })
	b.Run("no-redirect", func(b *testing.B) { run(b, true, false) })
	b.Run("no-bloat", func(b *testing.B) { run(b, false, true) })
	b.Run("plain-get-only", func(b *testing.B) { run(b, true, true) })
}

// BenchmarkAblationRepeats compares single probes against the paper's
// 3-probe maximum rule under 1% packet loss: repetition recovers the
// tail-loss underestimates.
func BenchmarkAblationRepeats(b *testing.B) {
	for _, repeats := range []int{1, 3} {
		name := "repeats1"
		if repeats == 3 {
			name = "repeats3"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := inet.NewInternet2017(2017)
				res := experiments.RunScan(u, experiments.ScanConfig{
					Seed: uint64(11 + i), Strategy: core.StrategyHTTP,
					SampleFraction: benchSample, MSSList: []int{64},
					Repeats: repeats, Loss: 0.01,
				})
				// Fidelity: fraction of successful estimates that match
				// the universe's ground truth.
				exact, total := 0, 0
				for j := range res.Records {
					r := &res.Records[j]
					if r.Outcome != core.OutcomeSuccess {
						continue
					}
					spec := u.HostAt(r.Addr)
					if spec == nil {
						continue
					}
					total++
					if r.IW == spec.ExpectedIWSegments(80, 64) {
						exact++
					}
				}
				if total > 0 {
					b.ReportMetric(100*float64(exact)/float64(total), "exact-%")
				}
			}
		})
	}
}

// BenchmarkChainSample measures the Figure-2 chain-length sampler.
func BenchmarkChainSample(b *testing.B) {
	var d tlssim.ChainLenDist
	rng := stats.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.SampleHash(rng.Uint64())
	}
}
