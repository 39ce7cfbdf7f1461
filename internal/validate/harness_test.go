package validate

import (
	"strings"
	"sync"
	"testing"

	"iwscan/internal/analysis"
	"iwscan/internal/core"
	"iwscan/internal/experiments"
	"iwscan/internal/inet"
	"iwscan/internal/stats"
)

// The reference scans the checked-in goldens were captured from, one per
// golden. refHTTP is also the sample the acceptance tests judge.
const (
	refUniverseSeed = 2017
	refSample       = 0.06
)

// reference is one zero-adversity reference scan of the 2017 universe,
// run at most once per test binary.
type reference struct {
	golden   string
	strategy string
	scanSeed uint64

	once    sync.Once
	records []analysis.Record
	report  *Report
}

var (
	refHTTP = &reference{golden: "testdata/golden-http-2017.json", strategy: "http", scanSeed: 2017}
	refTLS  = &reference{golden: "testdata/golden-tls-2017.json", strategy: "tls", scanSeed: 2018}
)

// scan runs (once) the reference scan: >= 10k probed targets.
func (r *reference) scan(t *testing.T) ([]analysis.Record, *Report) {
	t.Helper()
	r.once.Do(func() {
		strat := core.StrategyHTTP
		if r.strategy == "tls" {
			strat = core.StrategyTLS
		}
		u := inet.NewInternet2017(refUniverseSeed)
		res := experiments.RunScan(u, experiments.ScanConfig{
			Seed:           r.scanSeed,
			Strategy:       strat,
			SampleFraction: refSample,
		})
		r.records = res.Records
		r.report = BuildReport(NewOracle(u, 64), r.strategy, r.records)
	})
	return r.records, r.report
}

// TestZeroAdversityAccuracy is the harness's acceptance gate: under
// zero-adversity conditions the estimator must agree with the oracle on
// at least 99% of its definitive estimates, across a >= 10k-target
// sample, with zero bound violations and zero ghosts.
func TestZeroAdversityAccuracy(t *testing.T) {
	records, rep := refHTTP.scan(t)
	t.Log("\n" + rep.Render())
	if len(records) < 10000 {
		t.Fatalf("reference sample has %d records, want >= 10000", len(records))
	}
	if rep.Estimates() < 1000 {
		t.Fatalf("only %d definitive estimates — sample too thin to validate", rep.Estimates())
	}
	if acc := rep.Accuracy(); acc < 0.99 {
		t.Errorf("exact-match accuracy %.4f, want >= 0.99", acc)
	}
	if rep.Counts[VerdictBoundExceeds] != 0 {
		t.Errorf("%d few-data lower bounds exceed the true IW (method promises zero)", rep.Counts[VerdictBoundExceeds])
	}
	if rep.Counts[VerdictGhost] != 0 {
		t.Errorf("%d ghost records (data measured at oracle-dark targets)", rep.Counts[VerdictGhost])
	}
	if rep.Counts[VerdictMissed] != 0 {
		t.Errorf("%d live hosts unreachable under zero loss", rep.Counts[VerdictMissed])
	}
	// The join must balance: every record is live or dark.
	if rep.Live+rep.Dark != rep.Total {
		t.Errorf("live %d + dark %d != total %d", rep.Live, rep.Dark, rep.Total)
	}
}

// TestConfusionDiagonalDominates checks the matrix itself: under zero
// adversity the diagonal carries (nearly) all the mass and per-class
// precision/recall of the dominant classes stays high.
func TestConfusionDiagonalDominates(t *testing.T) {
	_, rep := refHTTP.scan(t)
	c := rep.Confusion
	if c.Total() == 0 {
		t.Fatal("empty confusion matrix")
	}
	if frac := float64(c.Diagonal()) / float64(c.Total()); frac < 0.99 {
		t.Errorf("diagonal mass %.4f, want >= 0.99", frac)
	}
	for _, iw := range []int{1, 2, 4, 10} {
		if c.TrueCount(iw) < 20 {
			t.Errorf("IW%d: only %d true members in the sample", iw, c.TrueCount(iw))
			continue
		}
		if p := c.Precision(iw); p < 0.97 {
			t.Errorf("IW%d precision %.4f, want >= 0.97", iw, p)
		}
		if r := c.Recall(iw); r < 0.97 {
			t.Errorf("IW%d recall %.4f, want >= 0.97", iw, r)
		}
	}
}

// TestGoldenMatchesReferenceScan pins the aggregate population to each
// checked-in golden: any change that shifts the measured IW
// distribution outside tolerance fails here, as does a golden whose
// parameters drifted from the scan it is compared against.
func TestGoldenMatchesReferenceScan(t *testing.T) {
	for _, ref := range []*reference{refHTTP, refTLS} {
		t.Run(ref.strategy, func(t *testing.T) {
			g, err := LoadGolden(ref.golden)
			if err != nil {
				t.Fatal(err)
			}
			if g.UniverseSeed != refUniverseSeed || g.ScanSeed != ref.scanSeed ||
				g.Strategy != ref.strategy || g.Sample != refSample {
				t.Fatalf("golden parameters %d/%d/%s/%v drifted from the reference scan %d/%d/%s/%v",
					g.UniverseSeed, g.ScanSeed, g.Strategy, g.Sample,
					refUniverseSeed, ref.scanSeed, ref.strategy, refSample)
			}
			records, rep := ref.scan(t)
			if v := g.Compare(records, rep); len(v) != 0 {
				t.Errorf("golden violations:\n  %s", strings.Join(v, "\n  "))
			}
		})
	}
}

// TestGoldenCatchesPerturbedProfile demonstrates the regression layer
// end to end: perturb one population profile (the generic web farms
// switch to an all-IW4 policy), re-run the reference scan, and the
// golden comparison must fail.
func TestGoldenCatchesPerturbedProfile(t *testing.T) {
	g, err := LoadGolden("testdata/golden-http-2017.json")
	if err != nil {
		t.Fatal(err)
	}
	u := inet.NewInternet2017(g.UniverseSeed)
	perturbed := 0
	for _, as := range u.ASes {
		if strings.HasPrefix(as.Name, "GenericWeb") {
			as.HTTPIW = stats.NewCategorical(map[int]float64{4: 100})
			perturbed++
		}
	}
	if perturbed == 0 {
		t.Fatal("no GenericWeb AS found to perturb")
	}
	cfg, err := g.ScanConfig()
	if err != nil {
		t.Fatal(err)
	}
	res := experiments.RunScan(u, cfg)
	rep := BuildReport(NewOracle(u, 64), g.Strategy, res.Records)
	violations := g.Compare(res.Records, rep)
	if len(violations) == 0 {
		t.Fatal("golden comparison accepted a perturbed IW population")
	}
	t.Logf("perturbation caught: %s", strings.Join(violations, "; "))
	// The perturbation moved IW shares, so at least one IW band must be
	// among the violations.
	found := false
	for _, v := range violations {
		if strings.Contains(v, "IW") {
			found = true
		}
	}
	if !found {
		t.Errorf("no IW-share violation among: %v", violations)
	}
}
