package validate

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"iwscan/internal/analysis"
	"iwscan/internal/core"
	"iwscan/internal/experiments"
)

// Band is a golden value with a symmetric tolerance.
type Band struct {
	Value float64 `json:"value"`
	Tol   float64 `json:"tol"`
}

// Contains reports whether v lies within the band.
func (b Band) Contains(v float64) bool {
	return v >= b.Value-b.Tol && v <= b.Value+b.Tol
}

// IWBand is a golden share for one IW class (fraction of successes).
type IWBand struct {
	IW    int     `json:"iw"`
	Value float64 `json:"value"`
	Tol   float64 `json:"tol"`
}

// Golden snapshots the aggregate result of one reference scan — the
// calibration targets behind the paper's Tables 1-3 / Figures 3-5 —
// with tolerance bands. It embeds the scan parameters so a regression
// run reproduces exactly the population it was captured from.
type Golden struct {
	Name         string  `json:"name"`
	UniverseSeed uint64  `json:"universe_seed"`
	ScanSeed     uint64  `json:"scan_seed"`
	Strategy     string  `json:"strategy"`
	Sample       float64 `json:"sample"`

	// MinRecords guards against the scan silently shrinking (a space or
	// sampling regression).
	MinRecords int `json:"min_records"`
	// MinAccuracy is the oracle exact-match floor under zero adversity.
	MinAccuracy float64 `json:"min_accuracy"`

	Reachable Band `json:"reachable"` // reachable fraction of probed targets
	Success   Band `json:"success"`   // Table 1 fractions of reachable
	FewData   Band `json:"few_data"`
	Error     Band `json:"error"`

	// IWDist is the success-conditioned IW distribution (Figure 3).
	IWDist []IWBand `json:"iw_dist"`
	// MaxNewIWFrac bounds the share of any IW class absent from IWDist:
	// a new population class above it is drift, not noise.
	MaxNewIWFrac float64 `json:"max_new_iw_frac"`
}

// ScanConfig returns the configuration that reproduces the golden's
// reference scan.
func (g *Golden) ScanConfig() (experiments.ScanConfig, error) {
	strat, err := core.ParseStrategy(g.Strategy)
	if err != nil || strat == core.StrategySYN {
		return experiments.ScanConfig{}, fmt.Errorf("validate: golden %q has unknown strategy %q", g.Name, g.Strategy)
	}
	return experiments.ScanConfig{
		Seed:           g.ScanSeed,
		Strategy:       strat,
		SampleFraction: g.Sample,
	}, nil
}

// CaptureGolden builds a golden snapshot from a reference scan's
// records, deriving tolerance bands wide enough for benign jitter and
// tight enough to catch population drift.
func CaptureGolden(name string, universeSeed, scanSeed uint64, strategy string, sample float64, records []analysis.Record) *Golden {
	g := &Golden{
		Name:         name,
		UniverseSeed: universeSeed,
		ScanSeed:     scanSeed,
		Strategy:     strategy,
		Sample:       sample,
		MinRecords:   len(records) * 9 / 10,
		MinAccuracy:  0.99,
		MaxNewIWFrac: 0.005,
	}
	o := analysis.Table1(records)
	reach := 0.0
	if len(records) > 0 {
		reach = float64(o.Reachable) / float64(len(records))
	}
	outcomeBand := func(v float64) Band { return Band{Value: v, Tol: 0.02} }
	g.Reachable = outcomeBand(reach)
	g.Success = outcomeBand(o.Success)
	g.FewData = outcomeBand(o.FewData)
	g.Error = Band{Value: o.Error, Tol: 0.01}
	dist := analysis.IWDistribution(records)
	for _, iw := range sortedKeys(dist) {
		v := dist[iw]
		if v < g.MaxNewIWFrac {
			continue // tail classes are covered by MaxNewIWFrac
		}
		tol := 0.05 * v
		if tol < 0.005 {
			tol = 0.005
		}
		g.IWDist = append(g.IWDist, IWBand{IW: iw, Value: v, Tol: tol})
	}
	return g
}

// Compare checks a scan's records (and, when non-nil, its oracle
// report) against the golden bands, returning one violation string per
// breached band. An empty slice means the population is within
// tolerance.
func (g *Golden) Compare(records []analysis.Record, rep *Report) []string {
	var out []string
	violate := func(format string, args ...any) {
		out = append(out, fmt.Sprintf(format, args...))
	}
	if len(records) < g.MinRecords {
		violate("records %d below golden floor %d", len(records), g.MinRecords)
	}
	o := analysis.Table1(records)
	reach := 0.0
	if len(records) > 0 {
		reach = float64(o.Reachable) / float64(len(records))
	}
	check := func(name string, got float64, b Band) {
		if !b.Contains(got) {
			violate("%s %.4f outside golden %.4f ± %.4f", name, got, b.Value, b.Tol)
		}
	}
	check("reachable", reach, g.Reachable)
	check("success", o.Success, g.Success)
	check("few-data", o.FewData, g.FewData)
	check("error", o.Error, g.Error)

	dist := analysis.IWDistribution(records)
	golden := make(map[int]IWBand, len(g.IWDist))
	for _, b := range g.IWDist {
		golden[b.IW] = b
		check(fmt.Sprintf("IW%d share", b.IW), dist[b.IW], Band{Value: b.Value, Tol: b.Tol})
	}
	for _, iw := range sortedKeys(dist) {
		if _, ok := golden[iw]; ok {
			continue
		}
		if dist[iw] > g.MaxNewIWFrac {
			violate("unexpected IW class %d at %.4f (max new-class share %.4f)", iw, dist[iw], g.MaxNewIWFrac)
		}
	}
	if rep != nil && rep.Accuracy() < g.MinAccuracy {
		violate("exact-match accuracy %.4f below golden floor %.4f", rep.Accuracy(), g.MinAccuracy)
	}
	return out
}

// SaveGolden writes the golden file (indented JSON, trailing newline).
func SaveGolden(path string, g *Golden) error {
	sort.Slice(g.IWDist, func(i, j int) bool { return g.IWDist[i].IW < g.IWDist[j].IW })
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadGolden reads a golden file.
func LoadGolden(path string) (*Golden, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g := &Golden{}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, fmt.Errorf("validate: parsing golden %s: %w", path, err)
	}
	return g, nil
}
