package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"iwscan/internal/analysis"
	"iwscan/internal/core"
	"iwscan/internal/experiments"
	"iwscan/internal/inet"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
	"iwscan/internal/prefixtree"
	"iwscan/internal/scanner"
	"iwscan/internal/validate"
	"iwscan/internal/wire"
)

// universeSeed fixes the simulated Internet; only the scan seed varies
// with -seed.
const universeSeed = 55

// env is what every workload is set up from.
type env struct {
	seed    uint64
	quick   bool   // sample ÷ 10 and fewer jobs: the tier-1 smoke size
	workdir string // scratch directory inside the checkout
}

// scale shrinks a sample fraction for -quick.
func (e *env) scale(sample float64) float64 {
	if e.quick {
		return sample / 10
	}
	return sample
}

// workload is one catalogue entry. setup builds a ready-to-measure
// instance; its wall time is what setup_s reports.
type workload struct {
	name string
	why  string
	// minReps is the fewest timed reps a full run takes, however short
	// its budget: what the workload's highest reported percentile needs
	// to keep ten samples beyond it, on a slow host too.
	minReps int
	setup   func(e *env) (instance, error)
}

// instance is a set-up workload. rep runs one timed repetition with
// tracing off and check the gates that need no timing, after the last
// rep; layers runs the traced pass and the layer drivers.
type instance interface {
	rep() (repSample, error)
	check() error
	layers(budget time.Duration, traceOut string) (map[string]float64, error)
	digest() string // sha256 of the IWB1 file every rep must reproduce; "" if there is none
	close() error
}

// opSample is one operation's timing: a whole scan for the scan
// workloads, one job for serve_jobs.
type opSample struct {
	scanWall time.Duration // time inside the scan engine
	latency  time.Duration // start (or submit) to output verified
}

// repSample is what one repetition measured.
type repSample struct {
	wall      time.Duration // the window probes and slots are divided by
	opWall    time.Duration // the window ops are divided by (wall + verification)
	probes    int64
	slots     int64 // address slots of the target space covered
	mallocs   uint64
	heapBytes uint64
	ops       []opSample
	attempted int64 // targets (scan workloads) or jobs (serve_jobs)
	failed    int64
	exact     int64 // oracle: exact estimates / definitive estimates
	estimates int64
}

var workloads = []workload{
	{
		name:    "census_http",
		why:     "the paper's scan, serial on a clean path: per-probe layers (netsim, tcpstack, core, inet) do nearly all the work, the permutation walk under 1%",
		minReps: 7,
		setup: func(e *env) (instance, error) {
			return newScanInstance(e, censusHTTP(e), "http")
		},
	},
	{
		name:    "census_tls_lossy",
		why:     "same space through tlssim with loss, reorder, duplication, tail loss and one retry: RTO timers, retransmits and the retry queue work here and not in census_http",
		minReps: 7,
		setup: func(e *env) (instance, error) {
			return newScanInstance(e, censusTLSLossy(e), "tls")
		},
	},
	{
		name:    "census_sharded",
		why:     "census_http through 2 pinned shards and output.Merge: per-shard engines and the k-way merge work here only, and the merged bytes must equal the serial scan's",
		minReps: 7,
		setup: func(e *env) (instance, error) {
			job := censusHTTP(e)
			job.shards = 2
			return newScanInstance(e, job, "http")
		},
	},
	{
		name:    "rescan_sparse",
		why:     "sparse smart rescan under a trained prefixtree plan: the two-phase permutation walk and Plan.Decide dominate, the per-probe layers barely run, so a per-probe gain must show no change",
		minReps: 220, // a rep is one rescan; 220 leave 11 beyond p95
		setup:   newRescanInstance,
	},
	{
		name:    "serve_jobs",
		why:     "closed loop of 2 HTTP clients submitting jobs to an in-process iwserve: jobs, events, checkpoint and append sinks do the work the engine does elsewhere",
		minReps: 3, // a rep is a round of 40 jobs; 120 leave 12 beyond p90
		setup:   newServeInstance,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// censusHTTP is the paper's scan (§3.4): MSS 64 and 128, three probes
// each, 150k launches per virtual second, over a 5% sample (per-probe
// cost is flat in the sample size, so 5% is representative).
func censusHTTP(e *env) scanJob {
	return scanJob{shards: 1, cfg: experiments.ScanConfig{
		Seed: e.seed, Strategy: core.StrategyHTTP, SampleFraction: e.scale(0.05),
		MSSList: []int{64, 128}, Repeats: 3, Rate: 150000,
	}}
}

func censusTLSLossy(e *env) scanJob {
	job := censusHTTP(e)
	job.cfg.Strategy = core.StrategyTLS
	job.cfg.MaxRetries = 1
	job.cfg.Path = &netsim.PathParams{
		Delay: 10 * netsim.Millisecond, Jitter: 2 * netsim.Millisecond,
		Loss: 0.02, Reorder: 0.02, Duplicate: 0.01,
	}
	seed := e.seed
	job.cfg.FilterFactories = []func() netsim.Filter{
		func() netsim.Filter { return netsim.TailLossFilter(seed, 0.2) },
	}
	return job
}

// sparseScan is training scan k of rescan_sparse; the timed op is the
// same scan under the plan trained from it.
func sparseScan(e *env, k int) scanJob {
	return scanJob{shards: 1, cfg: experiments.ScanConfig{
		Seed: e.seed*rescanPlans + uint64(k), Strategy: core.StrategyHTTP, SampleFraction: 0.002,
		MSSList: []int{64}, Repeats: 1,
	}}
}

// scanInstance is a set-up scan workload.
type scanInstance struct {
	env      *env
	u        *inet.Universe
	oracle   *validate.Oracle
	job      scanJob
	strategy string
	slots    int64
	dir      string
	sha256   string // of the first rep's IWB1; every rep must match

	// rescan_sparse: what the training scan found and spent.
	trainHosts  []wire.Addr
	trainProbes int64

	lastRes  *experiments.ScanResult
	lastRecs []analysis.Record
}

func newScanInstance(e *env, job scanJob, strategy string) (*scanInstance, error) {
	dir, err := os.MkdirTemp(e.workdir, "scan-")
	if err != nil {
		return nil, err
	}
	u := inet.NewInternet2017(universeSeed)
	s := &scanInstance{
		env: e, u: u, oracle: validate.NewOracle(u, 64), job: job, strategy: strategy,
		slots: int64(scanner.NewSpaceFromPrefixes(u.Prefixes()).Size()), dir: dir,
	}
	// Warm-up, discarded: a tenth of the scan grows the heap and faults
	// in the code before the first timed rep.
	warm := job
	warm.cfg.SampleFraction /= 10
	if _, err := warm.run(u, filepath.Join(dir, "warm.iwb")); err != nil {
		return nil, err
	}
	return s, nil
}

// rescanPlans is how many trained scans rescan_sparse takes in turn. One
// sparse scan launches some 180 targets, so few that its per-probe
// figures move with the seed alone (allocations by 5%, bytes by 14%
// between quartiles); eight of them, pooled, bring that under 2% and 5%.
const rescanPlans = 8

// rescanInstance is the set-up rescan_sparse: rescanPlans scans, each
// under the plan trained from its own earlier run, timed in turn.
type rescanInstance struct {
	scans []*scanInstance
	turn  int
}

func newRescanInstance(e *env) (instance, error) {
	base, err := newScanInstance(e, sparseScan(e, 0), "http")
	if err != nil {
		return nil, err
	}
	plans := rescanPlans
	if e.quick {
		plans = 2
	}
	r := &rescanInstance{}
	for k := 0; k < plans; k++ {
		s := *base // shares the universe, the oracle and the directory
		s.job = sparseScan(e, k)
		full, err := experiments.RunScanChecked(s.u, s.job.cfg)
		if err != nil {
			return nil, err
		}
		model := prefixtree.New()
		model.ObserveRecords(full.Records)
		s.job.cfg.Smart = prefixtree.NewPlan(model, prefixtree.PlanConfig{Threshold: 0.01, Seed: s.job.cfg.Seed})
		s.trainHosts = prefixtree.Hitlist(full.Records)
		s.trainProbes = full.Scan.ProbesStarted
		r.scans = append(r.scans, &s)
	}
	// One discarded op under a plan: the timed ops all walk two phases.
	if _, err := r.scans[0].job.run(base.u, filepath.Join(base.dir, "warm.iwb")); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *rescanInstance) rep() (repSample, error) {
	s := r.scans[r.turn%len(r.scans)]
	r.turn++
	return s.rep()
}

func (r *rescanInstance) check() error   { return nil }
func (r *rescanInstance) digest() string { return r.scans[0].sha256 }
func (r *rescanInstance) close() error   { return r.scans[0].close() }

func (s *scanInstance) digest() string { return s.sha256 }
func (s *scanInstance) close() error   { return os.RemoveAll(s.dir) }

// check holds a sharded workload's merged file to the bytes the serial
// scan of the same configuration writes.
func (s *scanInstance) check() error {
	if s.job.shards <= 1 {
		return nil
	}
	serial := scanJob{shards: 1, cfg: s.job.cfg}
	path := filepath.Join(s.dir, "serial.iwb")
	if _, err := serial.run(s.u, path); err != nil {
		return err
	}
	return s.sameBytes(path, "serial scan")
}

// rep runs the scan once, untraced, and verifies what it wrote.
func (s *scanInstance) rep() (repSample, error) {
	path := filepath.Join(s.dir, "out.iwb")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := s.job.run(s.u, path)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return repSample{}, err
	}
	sample := repSample{
		wall: wall, probes: res.Scan.ProbesStarted, slots: s.slots,
		mallocs: after.Mallocs - before.Mallocs, heapBytes: after.TotalAlloc - before.TotalAlloc,
	}
	if err := s.verify(path, res, &sample); err != nil {
		return repSample{}, err
	}
	sample.opWall = time.Since(start)
	sample.ops = []opSample{{scanWall: wall, latency: sample.opWall}}
	return sample, nil
}

// verify reads the IWB1 file back and applies the gates: same bytes as
// every other rep, one record per launched target, no overestimate and
// no bound violation against the oracle, and for rescan_sparse every
// training host re-found with at least 30% of the probes saved.
func (s *scanInstance) verify(path string, res *experiments.ScanResult, sample *repSample) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	sum := digestOf(data)
	if s.sha256 == "" {
		s.sha256 = sum
	} else if sum != s.sha256 {
		return fmt.Errorf("IWB1 output changed between reps: sha256 %s, first rep %s", sum, s.sha256)
	}
	recs, err := output.ReadBinary(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("read back %s: %w", path, err)
	}
	s.lastRes, s.lastRecs = res, recs
	rep := validate.BuildReport(s.oracle, s.strategy, recs)
	sample.attempted = res.Engine.Launched
	if missing := res.Engine.Launched - int64(len(recs)); missing > 0 {
		sample.failed += missing
	}
	sample.failed += int64(rep.Counts[validate.VerdictOver] + rep.BoundViolations())
	sample.exact = int64(rep.Counts[validate.VerdictExact])
	sample.estimates = int64(rep.Estimates())
	if s.trainHosts == nil {
		return nil
	}
	found := make(map[wire.Addr]bool)
	for _, a := range prefixtree.Hitlist(recs) {
		found[a] = true
	}
	for _, a := range s.trainHosts {
		if !found[a] {
			return fmt.Errorf("smart rescan lost training host %s", a)
		}
	}
	if saved := s.probesSaved(res); saved < 0.30 {
		return fmt.Errorf("smart rescan saved %.1f%% of %d probes, want >= 30%%", 100*saved, s.trainProbes)
	}
	return nil
}

func (s *scanInstance) probesSaved(res *experiments.ScanResult) float64 {
	return 1 - ratio(float64(res.Scan.ProbesStarted), float64(s.trainProbes))
}
