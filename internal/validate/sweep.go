package validate

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"iwscan/internal/core"
	"iwscan/internal/experiments"
	"iwscan/internal/inet"
	"iwscan/internal/netsim"
)

// Condition is one cell of the adversity grid: a set of netsim
// impairments applied on top of the baseline path (10 ms delay, 2 ms
// jitter).
type Condition struct {
	Name      string
	Loss      float64     // independent per-packet loss probability
	Reorder   float64     // probability a packet jumps the queue
	Duplicate float64     // per-packet duplication probability
	Jitter    netsim.Time // extra jitter on top of the baseline 2 ms
	TailLoss  float64     // burst-tail loss probability (netsim.TailLossFilter)
}

// path materializes the condition's network parameters.
func (c Condition) path() netsim.PathParams {
	return netsim.PathParams{
		Delay:     10 * netsim.Millisecond,
		Jitter:    2*netsim.Millisecond + c.Jitter,
		Loss:      c.Loss,
		Reorder:   c.Reorder,
		Duplicate: c.Duplicate,
	}
}

// Zero reports whether the condition adds no adversity at all.
func (c Condition) Zero() bool {
	return c.Loss == 0 && c.Reorder == 0 && c.Duplicate == 0 && c.Jitter == 0 && c.TailLoss == 0
}

// DefaultGrid is the standard adversity sweep: loss 0-15%, reordering,
// duplication, delay jitter and tail loss, plus one hostile combination
// — the §3.5 robustness axes.
func DefaultGrid() []Condition {
	return []Condition{
		{Name: "zero"},
		{Name: "loss-1", Loss: 0.01},
		{Name: "loss-2", Loss: 0.02},
		{Name: "loss-5", Loss: 0.05},
		{Name: "loss-10", Loss: 0.10},
		{Name: "loss-15", Loss: 0.15},
		{Name: "reorder-5", Reorder: 0.05},
		{Name: "reorder-20", Reorder: 0.20},
		{Name: "dup-5", Duplicate: 0.05},
		{Name: "jitter-8ms", Jitter: 8 * netsim.Millisecond},
		{Name: "tail-5", TailLoss: 0.05},
		{Name: "tail-20", TailLoss: 0.20},
		{Name: "hostile", Loss: 0.05, Reorder: 0.10, Duplicate: 0.02,
			Jitter: 6 * netsim.Millisecond, TailLoss: 0.10},
	}
}

// SweepConfig parameterizes an adversity sweep.
type SweepConfig struct {
	Strategy   core.Strategy
	Sample     float64 // fraction of the address space per condition
	Seed       uint64
	MaxRetries int
	Conditions []Condition // default: DefaultGrid
}

// SweepPoint is one condition's outcome.
type SweepPoint struct {
	Condition Condition
	Report    *Report
}

// RunSweep scans the same sample of the universe once per condition and
// validates each scan against the oracle, yielding the
// accuracy-vs-adversity curve.
func RunSweep(u *inet.Universe, cfg SweepConfig) ([]SweepPoint, error) {
	conditions := cfg.Conditions
	if len(conditions) == 0 {
		conditions = DefaultGrid()
	}
	oracle := NewOracle(u, 64)
	stratName := strategyName(cfg.Strategy)
	out := make([]SweepPoint, 0, len(conditions))
	for _, cond := range conditions {
		path := cond.path()
		sc := experiments.ScanConfig{
			Seed:           cfg.Seed,
			Strategy:       cfg.Strategy,
			SampleFraction: cfg.Sample,
			MaxRetries:     cfg.MaxRetries,
			Path:           &path,
		}
		if cond.TailLoss > 0 {
			sc.FilterFactories = []func() netsim.Filter{
				func() netsim.Filter { return netsim.TailLossFilter(cfg.Seed, cond.TailLoss) },
			}
		}
		res, err := experiments.RunScanChecked(u, sc)
		if err != nil {
			return nil, fmt.Errorf("validate: sweep condition %q: %w", cond.Name, err)
		}
		out = append(out, SweepPoint{
			Condition: cond,
			Report:    BuildReport(oracle, stratName, res.Records),
		})
	}
	return out, nil
}

// strategyName renders a core.Strategy for reports.
func strategyName(s core.Strategy) string {
	switch s {
	case core.StrategyTLS:
		return "tls"
	case core.StrategySYN:
		return "syn"
	default:
		return "http"
	}
}

// RenderSweep formats the accuracy-vs-adversity curve as a text table.
func RenderSweep(points []SweepPoint) string {
	var b strings.Builder
	b.WriteString("accuracy vs adversity (definitive estimates only):\n")
	fmt.Fprintf(&b, "  %-12s %8s %9s %9s %8s %8s %8s %8s\n",
		"condition", "records", "coverage", "accuracy", "offby1", "under", "over", "bound!")
	for _, p := range points {
		r := p.Report
		fmt.Fprintf(&b, "  %-12s %8d %8.1f%% %8.2f%% %8d %8d %8d %8d\n",
			p.Condition.Name, r.Total, 100*r.Coverage(), 100*r.Accuracy(),
			r.Counts[VerdictOffByOne], r.Counts[VerdictUnder], r.Counts[VerdictOver],
			r.BoundViolations())
	}
	return b.String()
}

// WriteSweepCSV emits the curve in machine-readable form (one row per
// condition), the artifact CI uploads.
func WriteSweepCSV(w io.Writer, points []SweepPoint) error {
	cw := csv.NewWriter(w)
	header := []string{
		"condition", "loss", "reorder", "duplicate", "jitter_ms", "tail_loss",
		"records", "live", "estimates", "coverage", "accuracy",
		"exact", "off_by_one", "under", "over", "byte_limit_misread",
		"bound_ok", "bound_exceeds", "no_data", "ambiguous", "missed", "dark", "ghost",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, p := range points {
		r := p.Report
		row := []string{
			p.Condition.Name,
			f(p.Condition.Loss), f(p.Condition.Reorder), f(p.Condition.Duplicate),
			f(p.Condition.Jitter.Seconds() * 1000), f(p.Condition.TailLoss),
			strconv.Itoa(r.Total), strconv.Itoa(r.Live), strconv.Itoa(r.Estimates()),
			f(r.Coverage()), f(r.Accuracy()),
			strconv.Itoa(r.Counts[VerdictExact]), strconv.Itoa(r.Counts[VerdictOffByOne]),
			strconv.Itoa(r.Counts[VerdictUnder]), strconv.Itoa(r.Counts[VerdictOver]),
			strconv.Itoa(r.Counts[VerdictByteLimitMisread]),
			strconv.Itoa(r.Counts[VerdictBoundOK]), strconv.Itoa(r.Counts[VerdictBoundExceeds]),
			strconv.Itoa(r.Counts[VerdictNoData]), strconv.Itoa(r.Counts[VerdictAmbiguous]),
			strconv.Itoa(r.Counts[VerdictMissed]), strconv.Itoa(r.Counts[VerdictDark]),
			strconv.Itoa(r.Counts[VerdictGhost]),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
