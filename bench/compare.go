package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &r, nil
}

// verdict places b against a for one metric. Worse by no more than the
// bound is ok. Worse by more is regressed — unless the metric's own
// spread (IQR over median, on either side) is wider than the bound and
// the two sample ranges overlap, in which case the runs cannot tell:
// unresolved, not unchanged.
func verdict(a, b metricValue) (delta float64, v string) {
	if a.Value == 0 {
		return 0, "ok"
	}
	delta = (b.Value - a.Value) / a.Value
	worse := delta
	if a.Better == "higher" {
		worse = -delta
	}
	if worse <= a.Bound {
		return delta, "ok"
	}
	noisy := a.Samples.spread() > a.Bound || b.Samples.spread() > a.Bound
	overlap := a.Samples.N > 0 && b.Samples.N > 0 && a.Samples.Min <= b.Samples.Max && b.Samples.Min <= a.Samples.Max
	if noisy && overlap {
		return delta, "unresolved"
	}
	return delta, "regressed"
}

// compareReports prints, per workload and metric, both values, the
// relative change with its base, the bound and the verdict. It reports
// whether every end-to-end pair was ok; per-layer metrics carry no
// bound and are listed for reading only.
func compareReports(out io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "a: %s (seed %d, load %.2f)   b: %s (seed %d, load %.2f)\n", pathA, a.Seed, a.Load1, pathB, b.Seed, b.Load1)
	allOK := true
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(out, "%s: missing from %s\n", wa.Name, pathB)
			allOK = false
			continue
		}
		fmt.Fprintf(out, "%s\n", wa.Name)
		for _, ma := range wa.Metrics {
			var mb *metricValue
			for i := range wb.Metrics {
				if wb.Metrics[i].Name == ma.Name {
					mb = &wb.Metrics[i]
				}
			}
			if mb == nil {
				fmt.Fprintf(out, "  %-40s missing from %s\n", ma.Name, pathB)
				allOK = false
				continue
			}
			delta, v := verdict(ma, *mb)
			if ma.Bound == 0 {
				v = "-"
			} else if v != "ok" {
				allOK = false
			}
			fmt.Fprintf(out, "  %-40s a %14.4f  b %14.4f %-11s %+7.2f%% of a  bound %4.0f%%  %s\n",
				ma.Name, ma.Value, mb.Value, ma.Unit, 100*delta, 100*ma.Bound, v)
		}
	}
	return allOK, nil
}
