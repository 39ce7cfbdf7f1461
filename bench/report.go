package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one metric: what BENCHMARK.json lists, and what
// the report and -compare label values with. Bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is measured with tracing off, on every workload. "op" is a
// whole scan for the scan workloads and one job for serve_jobs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"probes_per_s", "probes/s", "higher", 0.25},
	{"targets_per_s", "addresses/s", "higher", 0.25},
	{"scan_wall_p50_ms", "ms", "lower", 0.25},
	{"scan_wall_p95_ms", "ms", "lower", 0.25},
	{"allocs_per_probe", "allocs", "lower", 0.06},
	{"heap_bytes_per_probe", "B", "lower", 0.15},
	{"oracle_exact_ratio", "ratio", "higher", 0.02},
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"job_latency_p50_ms", "ms", "lower", 0.25},
	{"job_latency_p90_ms", "ms", "lower", 0.25},
}

// perLayer is measured by the traced pass and the layer drivers.
var perLayer = []metricDef{
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.ledger_gap_ratio", Unit: "ratio", Better: "lower"},

	{Name: "scanner.walk_ns_per_slot", Unit: "ns", Better: "lower"},
	{Name: "scanner.smart_walk_ns_per_slot", Unit: "ns", Better: "lower"},
	{Name: "scanner.launch_ns_per_target", Unit: "ns", Better: "lower"},
	{Name: "scanner.launch_ratio", Unit: "ratio", Better: "lower"},
	{Name: "scanner.retries_per_target", Unit: "count", Better: "lower"},

	{Name: "prefixtree.decide_ns_per_addr", Unit: "ns", Better: "lower"},
	{Name: "prefixtree.plan_build_ms", Unit: "ms", Better: "lower"},
	{Name: "prefixtree.observe_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "prefixtree.probes_saved_ratio", Unit: "ratio", Better: "higher"},
	{Name: "prefixtree.hosts_found_ratio", Unit: "ratio", Better: "higher"},

	{Name: "wire.codec_ns_per_packet", Unit: "ns", Better: "lower"},
	{Name: "wire.codec_allocs_per_packet", Unit: "allocs", Better: "lower"},

	{Name: "netsim.deliver_ns_per_packet", Unit: "ns", Better: "lower"},
	{Name: "netsim.timer_ns_per_arm_cancel", Unit: "ns", Better: "lower"},
	{Name: "netsim.timer_ns_per_fire", Unit: "ns", Better: "lower"},
	{Name: "netsim.events_per_probe", Unit: "count", Better: "lower"},
	{Name: "netsim.packets_per_probe", Unit: "count", Better: "lower"},
	{Name: "netsim.pool_miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "netsim.residual_self_us_per_probe", Unit: "us", Better: "lower"},

	{Name: "inet.hostat_ns_per_addr", Unit: "ns", Better: "lower"},
	{Name: "inet.create_host_ns", Unit: "ns", Better: "lower"},
	{Name: "inet.create_host_allocs", Unit: "allocs", Better: "lower"},
	{Name: "inet.hosts_per_probe", Unit: "count", Better: "lower"},
	{Name: "inet.self_us_per_probe", Unit: "us", Better: "lower"},

	{Name: "tcpstack.self_us_per_probe", Unit: "us", Better: "lower"},
	{Name: "tcpstack.handle_ns_per_packet", Unit: "ns", Better: "lower"},
	{Name: "tcpstack.handshake_burst_ns", Unit: "ns", Better: "lower"},
	{Name: "tcpstack.handshake_burst_allocs", Unit: "allocs", Better: "lower"},
	{Name: "tcpstack.retransmits_per_probe", Unit: "count", Better: "lower"},
	{Name: "httpsim.page_ns", Unit: "ns", Better: "lower"},
	{Name: "tlssim.flight_ns", Unit: "ns", Better: "lower"},

	{Name: "core.handle_self_us_per_probe", Unit: "us", Better: "lower"},
	{Name: "core.probe_target_self_us_per_probe", Unit: "us", Better: "lower"},
	{Name: "core.probes_per_target", Unit: "count", Better: "lower"},
	{Name: "core.single_host_probe_us", Unit: "us", Better: "lower"},

	{Name: "analysis.enrich_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "analysis.self_us_per_probe", Unit: "us", Better: "lower"},

	{Name: "output.self_us_per_probe", Unit: "us", Better: "lower"},
	{Name: "output.iwb1_write_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "output.csv_write_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "output.jsonl_write_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "output.iwb1_read_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "output.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "output.reorder_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "output.reorder_max_pending", Unit: "count", Better: "lower"},
	{Name: "output.merge_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "output.merge_max_pending", Unit: "count", Better: "lower"},

	{Name: "checkpoint.save_ms", Unit: "ms", Better: "lower"},

	{Name: "experiments.compose_self_us_per_probe", Unit: "us", Better: "lower"},
	{Name: "experiments.shard_speedup", Unit: "ratio", Better: "higher"},
	{Name: "experiments.shard_launch_skew", Unit: "ratio", Better: "lower"},

	{Name: "jobs.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.longpoll_calls_per_job", Unit: "count", Better: "lower"},
	{Name: "jobs.artifact_fetch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.dispatch_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.segment_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.segments_per_job", Unit: "count", Better: "lower"},
	{Name: "jobs.reprobe_ratio", Unit: "ratio", Better: "lower"},

	{Name: "events.append_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "events.sync_ms", Unit: "ms", Better: "lower"},
	{Name: "events.events_per_job", Unit: "count", Better: "lower"},
	{Name: "metrics.snapshot_us", Unit: "us", Better: "lower"},
}

// metricValue is one reported metric: the value, and the raw samples it
// was reduced from.
type metricValue struct {
	metricDef
	Value   float64   `json:"value"`
	Samples summary   `json:"samples"`
	Raw     []float64 `json:"raw,omitempty"`
}

// workloadReport is one workload's part of the report.
type workloadReport struct {
	Name      string        `json:"name"`
	Why       string        `json:"why"`
	Reps      int           `json:"reps"`
	Attempted int64         `json:"attempted"`
	Failed    int64         `json:"failed"`
	Digest    string        `json:"iwb1_sha256,omitempty"`
	Metrics   []metricValue `json:"metrics"`
}

// report is the -out document. The header is what lets a reader tell a
// noisy set from a trustworthy one.
type report struct {
	Schema     string           `json:"schema"`
	Go         string           `json:"go"`
	Cores      int              `json:"cores"`
	GoMaxProcs int              `json:"gomaxprocs"`
	Seed       uint64           `json:"seed"`
	Seconds    float64          `json:"seconds"`
	Traced     bool             `json:"traced"`
	Quick      bool             `json:"quick,omitempty"`
	Load1      float64          `json:"load_avg_1m"`
	StartedAt  string           `json:"started_at"`
	Workloads  []workloadReport `json:"workloads"`
}

func newReport(seed uint64, seconds float64, traced, quick bool) *report {
	return &report{
		Schema: "iwscan-bench/v1", Go: runtime.Version(), Cores: runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds, Traced: traced, Quick: quick,
		Load1: loadAverage(), StartedAt: time.Now().UTC().Format(time.RFC3339),
	}
}

// loadAverage is the host's 1-minute load average, or -1 where
// /proc/loadavg is not there to read.
func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// endToEndValues reduces a workload's reps to the end-to-end metrics.
// Every timing figure is taken over the quieter half of the run (see
// quietHalf): a rate is the inverse of the median cost per unit of work
// there, a percentile is one of its ops, the tail at the percentile the
// whole run supports. The per-probe memory costs and the oracle ratio
// are counts, summed over the reps before they are divided.
func endToEndValues(setups []float64, reps []repSample) []metricValue {
	var perProbe, perSlot, perOp, allocs, heap, scanWall, latency []float64
	var exact, estimates, probes int64
	var mallocs, heapBytes uint64
	for _, r := range reps {
		perProbe = append(perProbe, ratio(r.wall.Seconds(), float64(r.probes)))
		perSlot = append(perSlot, ratio(r.wall.Seconds(), float64(r.slots)))
		perOp = append(perOp, ratio(r.opWall.Seconds(), float64(len(r.ops))))
		allocs = append(allocs, ratio(float64(r.mallocs), float64(r.probes)))
		heap = append(heap, ratio(float64(r.heapBytes), float64(r.probes)))
		for _, op := range r.ops {
			scanWall = append(scanWall, float64(op.scanWall)/float64(time.Millisecond))
			latency = append(latency, float64(op.latency)/float64(time.Millisecond))
		}
		probes += r.probes
		mallocs += r.mallocs
		heapBytes += r.heapBytes
		exact += r.exact
		estimates += r.estimates
	}
	// rate reports units per second, with the per-rep rates as raw samples.
	type value struct {
		v   float64
		raw []float64
	}
	rate := func(secondsPerUnit []float64) value {
		raw := make([]float64, len(secondsPerUnit))
		for i, c := range secondsPerUnit {
			raw[i] = ratio(1, c)
		}
		return value{ratio(1, median(quietHalf(secondsPerUnit))), raw}
	}
	quietWall, quietLatency := quietHalf(scanWall), quietHalf(latency)
	values := map[string]value{
		"setup_s":              {median(setups), setups},
		"probes_per_s":         rate(perProbe),
		"targets_per_s":        rate(perSlot),
		"scan_wall_p50_ms":     {percentile(quietWall, 50), scanWall},
		"scan_wall_p95_ms":     {percentile(quietWall, supported(len(scanWall), 95)), scanWall},
		"allocs_per_probe":     {ratio(float64(mallocs), float64(probes)), allocs},
		"heap_bytes_per_probe": {ratio(float64(heapBytes), float64(probes)), heap},
		"oracle_exact_ratio":   {ratio(float64(exact), float64(estimates)), nil},
		"jobs_per_s":           rate(perOp),
		"job_latency_p50_ms":   {percentile(quietLatency, 50), latency},
		"job_latency_p90_ms":   {percentile(quietLatency, supported(len(latency), 90)), latency},
	}
	out := make([]metricValue, 0, len(endToEnd))
	for _, def := range endToEnd {
		v := values[def.Name]
		out = append(out, metricValue{metricDef: def, Value: v.v, Samples: summarize(v.raw), Raw: v.raw})
	}
	return out
}

// layerValues orders a traced pass's numbers by the catalogue and fails
// on a metric the pass did not produce.
func layerValues(got map[string]float64) ([]metricValue, error) {
	out := make([]metricValue, 0, len(perLayer))
	for _, def := range perLayer {
		v, ok := got[def.Name]
		if !ok {
			return nil, fmt.Errorf("traced pass produced no %s", def.Name)
		}
		out = append(out, metricValue{metricDef: def, Value: v})
		delete(got, def.Name)
	}
	for name := range got {
		return nil, fmt.Errorf("traced pass produced %s, which the catalogue does not list", name)
	}
	return out, nil
}

// print writes every metric by name with its unit.
func (w *workloadReport) print(out io.Writer) {
	fmt.Fprintf(out, "%s: %d reps, %d attempted, %d failed\n", w.Name, w.Reps, w.Attempted, w.Failed)
	for _, m := range w.Metrics {
		fmt.Fprintf(out, "  %-40s %16.4f %-12s", m.Name, m.Value, m.Unit)
		if m.Samples.N > 1 {
			fmt.Fprintf(out, " n=%-4d iqr/median %.3f", m.Samples.N, m.Samples.spread())
		}
		fmt.Fprintln(out)
	}
}

// resultLine is the benchmark contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResult writes the contract line. One workload reports its
// metrics under their own names; several qualify them by workload.
func (r *report) printResult(out io.Writer) error {
	line := resultLine{Correct: true, Metrics: make(map[string]resultValue)}
	for _, w := range r.Workloads {
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		for _, m := range w.Metrics {
			name := m.Name
			if len(r.Workloads) > 1 {
				name = w.Name + "/" + m.Name
			}
			line.Metrics[name] = resultValue{Value: m.Value, Unit: m.Unit}
		}
	}
	line.Correct = line.Failed == 0
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

func (r *report) write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
