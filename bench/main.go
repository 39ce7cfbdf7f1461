// Command bench is the repo's benchmark: five named workloads over the
// IW scanner, measured end to end with tracing off and, in a separate
// traced pass, layer by layer. See README.md for the catalogue and
// ../BENCHMARK.json for the contract the driver holds it to.
//
//	bash bench/run.sh --workload census_http --seed 9 --seconds 15 --trace 0
//	bash bench/run.sh -out a.json             # every workload, reps interleaved
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// setupRuns is how often each workload is set up; setup_s is the median,
// and the last instance is the one measured.
const setupRuns = 7

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Uint64("seed", 9, "scan seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 15, "measured time per workload")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass and layer drivers")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the last traced scan's spans here (JSON lines)")
		outPath  = flag.String("out", "", "write the JSON report here")
		quick    = flag.Bool("quick", false, "smoke size: sample / 10, 2 reps, 6 jobs, gates on")
		workdir  = flag.String("workdir", filepath.Join(".bench_build", "work"), "scratch directory (inside the checkout)")
		compare  = flag.Bool("compare", false, "compare two reports: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		ok, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	var selected []*workload
	if *name == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		selected = []*workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	scratch, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		fatal(err)
	}
	e := &env{seed: *seed, quick: *quick, workdir: scratch}
	budget := time.Duration(*seconds * float64(time.Second))
	if *quick {
		budget = 0
	}
	rep, err := run(e, selected, budget, *trace != 0, *traceOut)
	os.RemoveAll(scratch)
	if err != nil {
		fatal(err)
	}
	for i := range rep.Workloads {
		rep.Workloads[i].print(os.Stdout)
	}
	if *outPath != "" {
		if err := rep.write(*outPath); err != nil {
			fatal(err)
		}
	}
	if err := rep.printResult(os.Stdout); err != nil {
		fatal(err)
	}
	for _, w := range rep.Workloads {
		if w.Failed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

// running is one workload being measured.
type running struct {
	w       *workload
	inst    instance
	setups  []float64
	reps    []repSample
	elapsed time.Duration
}

// run sets every selected workload up, measures it and applies its
// gates. Untraced reps go round-robin across the workloads — rep 1 of
// each, then rep 2 — so a noise burst on a shared host costs each
// workload one rep, which its median rejects. Every workload gets
// budget of measured time and at least its minReps (two when -quick).
func run(e *env, selected []*workload, budget time.Duration, traced bool, traceOut string) (*report, error) {
	rep := newReport(e.seed, budget.Seconds(), traced, e.quick)
	var all []*running
	defer func() {
		for _, r := range all {
			if r.inst != nil {
				r.inst.close()
			}
		}
	}()
	setups := setupRuns
	if traced || e.quick {
		setups = 1 // setup_s is not reported, or not worth a median
	}
	for _, w := range selected {
		r := &running{w: w}
		all = append(all, r)
		for i := 0; i < setups; i++ {
			if r.inst != nil {
				if err := r.inst.close(); err != nil {
					return nil, err
				}
			}
			start := time.Now()
			inst, err := w.setup(e)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
			}
			r.setups = append(r.setups, time.Since(start).Seconds())
			r.inst = inst
		}
	}

	if traced {
		for _, r := range all {
			got, err := r.inst.layers(budget, traceOut)
			if err != nil {
				return nil, fmt.Errorf("%s: traced pass: %w", r.w.name, err)
			}
			values, err := layerValues(got)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.w.name, err)
			}
			rep.Workloads = append(rep.Workloads, workloadReport{
				Name: r.w.name, Why: r.w.why, Reps: 1, Attempted: 1, Metrics: values,
			})
		}
		return rep, nil
	}

	for active := len(all); active > 0; {
		active = 0
		for _, r := range all {
			if min := r.w.minReps; len(r.reps) >= 2 && (e.quick || len(r.reps) >= min) && r.elapsed >= budget {
				continue
			}
			start := time.Now()
			sample, err := r.inst.rep()
			if err != nil {
				return nil, fmt.Errorf("%s: rep %d: %w", r.w.name, len(r.reps)+1, err)
			}
			r.elapsed += time.Since(start)
			r.reps = append(r.reps, sample)
			active++
		}
	}
	for _, r := range all {
		if err := r.inst.check(); err != nil {
			return nil, fmt.Errorf("%s: %w", r.w.name, err)
		}
		wr := workloadReport{
			Name: r.w.name, Why: r.w.why, Reps: len(r.reps), Digest: r.inst.digest(),
			Metrics: endToEndValues(r.setups, r.reps),
		}
		for _, s := range r.reps {
			wr.Attempted += s.attempted
			wr.Failed += s.failed
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	return rep, nil
}
