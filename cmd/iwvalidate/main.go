// Command iwvalidate is the ground-truth validation harness CLI: it
// scans a sample of the simulated Internet, joins every record against
// the universe's per-host IW oracle, and reports how well the estimator
// did — the continuous-validation loop that keeps large-scale scan
// results trustworthy.
//
// Modes:
//
//	report  one scan, one accuracy report: verdict taxonomy, confusion
//	        matrix, per-class precision/recall. -min-accuracy turns the
//	        report into a gate (non-zero exit below the floor).
//	sweep   the same sample across a grid of adversity conditions
//	        (loss, reordering, duplication, jitter, tail loss),
//	        producing accuracy-vs-adversity curves.
//	golden  compare a scan against a checked-in golden snapshot of the
//	        aggregate IW distribution (or refresh one with -write).
//
// Examples:
//
//	iwvalidate -mode report -sample 0.05 -min-accuracy 0.99
//	iwvalidate -mode sweep -sample 0.01 -csv curves.csv
//	iwvalidate -mode golden -golden internal/validate/testdata/golden-http-2017.json
//	iwvalidate -mode golden -golden g.json -write -strategy tls -sample 0.06
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"iwscan/internal/core"
	"iwscan/internal/experiments"
	"iwscan/internal/inet"
	"iwscan/internal/validate"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "iwvalidate: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		mode     = flag.String("mode", "report", "report, sweep or golden")
		strategy = flag.String("strategy", "http", "probe strategy: http or tls")
		sample   = flag.Float64("sample", 0.02, "fraction of the address space to probe (0..1]")
		seed     = flag.Uint64("seed", 2017, "scan seed")
		useed    = flag.Uint64("universe-seed", 2017, "universe seed (host population)")
		retries  = flag.Int("retries", 0, "re-launch unreachable probes up to N extra times")
		outPath  = flag.String("out", "", "write the text report here (default stdout)")
		csvPath  = flag.String("csv", "", "sweep mode: also write the curve as CSV here")
		goldenP  = flag.String("golden", "", "golden mode: golden file to compare against or refresh")
		write    = flag.Bool("write", false, "golden mode: capture a fresh golden instead of comparing")
		name     = flag.String("name", "", "golden mode with -write: snapshot name (default derived)")
		minAcc   = flag.Float64("min-accuracy", 0, "report mode: exit non-zero when exact-match accuracy falls below this")
	)
	flag.Parse()

	strat, err := core.ParseStrategy(*strategy)
	if err != nil || strat == core.StrategySYN {
		fatalf("unknown strategy %q (want http or tls)", *strategy)
	}
	if *sample <= 0 || *sample > 1 {
		fatalf("-sample %v out of range: want 0 < sample <= 1", *sample)
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatalf("%v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatalf("closing %s: %v", *outPath, err)
			}
		}()
		out = f
	}

	switch *mode {
	case "report":
		u := inet.NewInternet2017(*useed)
		res, err := experiments.RunScanChecked(u, experiments.ScanConfig{
			Seed: *seed, Strategy: strat, SampleFraction: *sample, MaxRetries: *retries,
		})
		if err != nil {
			fatalf("%v", err)
		}
		rep := validate.BuildReport(validate.NewOracle(u, 64), *strategy, res.Records)
		fmt.Fprint(out, rep.Render())
		if *minAcc > 0 && rep.Accuracy() < *minAcc {
			fatalf("exact-match accuracy %.4f below floor %.4f", rep.Accuracy(), *minAcc)
		}
		if n := rep.BoundViolations(); n != 0 {
			fatalf("%d bound violations / ghosts — the dataset is not trustworthy", n)
		}

	case "sweep":
		u := inet.NewInternet2017(*useed)
		points, err := validate.RunSweep(u, validate.SweepConfig{
			Strategy: strat, Sample: *sample, Seed: *seed, MaxRetries: *retries,
		})
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Fprint(out, validate.RenderSweep(points))
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				fatalf("%v", err)
			}
			err = validate.WriteSweepCSV(f, points)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatalf("writing %s: %v", *csvPath, err)
			}
		}

	case "golden":
		if *goldenP == "" {
			fatalf("golden mode needs -golden <file>")
		}
		if *write {
			u := inet.NewInternet2017(*useed)
			res, err := experiments.RunScanChecked(u, experiments.ScanConfig{
				Seed: *seed, Strategy: strat, SampleFraction: *sample,
			})
			if err != nil {
				fatalf("%v", err)
			}
			gname := *name
			if gname == "" {
				gname = fmt.Sprintf("%s-%d-sample%g", *strategy, *useed, *sample)
			}
			g := validate.CaptureGolden(gname, *useed, *seed, *strategy, *sample, res.Records)
			if err := validate.SaveGolden(*goldenP, g); err != nil {
				fatalf("%v", err)
			}
			fmt.Fprintf(out, "wrote golden %q (%d records, %d IW bands) to %s\n",
				g.Name, len(res.Records), len(g.IWDist), *goldenP)
			return
		}
		g, err := validate.LoadGolden(*goldenP)
		if err != nil {
			fatalf("%v", err)
		}
		cfg, err := g.ScanConfig()
		if err != nil {
			fatalf("%v", err)
		}
		u := inet.NewInternet2017(g.UniverseSeed)
		res, err := experiments.RunScanChecked(u, cfg)
		if err != nil {
			fatalf("%v", err)
		}
		rep := validate.BuildReport(validate.NewOracle(u, 64), g.Strategy, res.Records)
		violations := g.Compare(res.Records, rep)
		if len(violations) != 0 {
			fmt.Fprintf(out, "golden %q: %d violations\n", g.Name, len(violations))
			for _, v := range violations {
				fmt.Fprintf(out, "  %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Fprintf(out, "golden %q: population within tolerance (%d records, accuracy %.3f%%)\n",
			g.Name, len(res.Records), 100*rep.Accuracy())

	default:
		fatalf("unknown mode %q (want report, sweep or golden)", *mode)
	}
}
