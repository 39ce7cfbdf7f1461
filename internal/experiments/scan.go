// Package experiments drives the end-to-end reproductions of the
// paper's tables and figures: it wires a simulated Internet (inet), the
// scan engine (scanner) and the IW prober (core) together and feeds the
// results to the analysis pipeline. Both the cmd/experiments binary and
// the benchmark suite run these entry points.
package experiments

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"iwscan/internal/analysis"
	"iwscan/internal/checkpoint"
	"iwscan/internal/core"
	"iwscan/internal/flight"
	"iwscan/internal/inet"
	"iwscan/internal/metrics"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
	"iwscan/internal/scanner"
	"iwscan/internal/timeseries"
	"iwscan/internal/wire"
)

// ScannerAddr is the scanner's source address, outside every modelled
// AS (RFC 2544 benchmark space).
var ScannerAddr = wire.MustParseAddr("198.18.0.1")

// ScanConfig parameterizes one scan run.
type ScanConfig struct {
	Seed           uint64
	Strategy       core.Strategy
	SampleFraction float64 // fraction of the address space to probe (1 = all)
	Rate           float64 // target launches per second of virtual time
	MaxOutstanding int
	Loss           float64 // per-packet network loss probability
	MSSList        []int   // announced MSS sequence (default 64, 128)
	Repeats        int     // probes per MSS (default 3)
	// MaxRetries re-launches probes whose handshake never completed
	// (outcome unreachable), up to this many extra attempts each, before
	// the scan is declared done. 0 disables retries.
	MaxRetries int
	// Ablation knobs (§3.2 fallbacks).
	NoRedirectFollow bool
	NoBloat          bool
	// Flight, when set, attaches a per-probe flight recorder: it
	// becomes the network's observer and the scanner's estimator sink,
	// and every probe begins/ends a journal keyed by target address.
	// Observation never draws from the simulation RNG, so golden
	// outputs stay byte-identical with the recorder enabled. Its
	// trigger configuration is part of the checkpoint fingerprint. A
	// recorder whose flight.Config sets Pcap also writes the scan's
	// packet capture.
	Flight *flight.Recorder
	// FlightClassify maps a completed record to the verdict name the
	// flight recorder's triggers match against (plus a free-form
	// detail line). Unset, the record's own outcome taxon is used —
	// wiring in the validate oracle is the caller's job because only
	// the caller knows the ground truth universe.
	FlightClassify func(*analysis.Record) (verdict, detail string)
	// Debug, when set, gets this run's registry and flight recorder
	// attached so a live HTTP endpoint can serve them mid-scan.
	Debug *flight.DebugServer
	// Path, when set, replaces the default path parameters (10 ms delay,
	// 2 ms jitter, Loss) wholesale — the adversity-sweep hook that lets
	// the validation harness dial in reordering, duplication and jitter
	// on top of loss. When Path is set the Loss field is ignored.
	Path *netsim.PathParams
	// FilterFactories build additional packet filters inside each run
	// (deterministic impairments such as netsim.TailLossFilter), one
	// fresh instance per simulation: filters may keep per-flow state
	// (TailLossFilter does), and under RunScanParallel every shard runs
	// its own simulation concurrently.
	FilterFactories []func() netsim.Filter
	// Timeseries, when set, attaches a telemetry sampler to the run: the
	// store's configured virtual-time cadence snapshots the registry into
	// per-shard interval deltas, feeds the anomaly detector, and serves
	// the debug server's /timeseries and /dash endpoints. Sampling is
	// non-perturbing (no RNG draws, read-only callbacks), so golden
	// outputs stay byte-identical with telemetry armed.
	Timeseries *timeseries.Store
	// Shard/Shards split the scan ZMap-style (0/0 = unsharded).
	Shard, Shards uint64
	// Blacklist excludes prefixes from probing.
	Blacklist []wire.Prefix
	// Smart, when set, enables topology-aware iteration: the engine
	// visits prefixes the plan marks hot first and skips prefixes it
	// prunes (internal/prefixtree compiles plans from trained
	// responsiveness models). The plan is identity-defining — its
	// fingerprint key, which embeds the model hash, joins the checkpoint
	// fingerprint, so -resume refuses a retrained model with a
	// field-level MismatchError. Plans are immutable, so one plan is
	// safe to share across parallel shards.
	Smart scanner.SmartPlan
	// Hitlist, when non-empty, replaces the universe's announced
	// prefixes as the target space with this explicit address list
	// (typically the responsive hosts of a prior scan, see
	// prefixtree.Hitlist). The blacklist still applies. The list is
	// identity-defining and joins the checkpoint fingerprint by content
	// hash.
	Hitlist []wire.Addr
	// StatusInterval, when positive together with StatusOut, prints a
	// ZMap-style one-line progress report to StatusOut every interval of
	// wall time while the scan runs.
	StatusInterval time.Duration
	StatusOut      io.Writer

	// Sink, when set, receives records as they complete — in permutation
	// order, one at a time — so the scan holds O(buffer) records in
	// memory instead of accumulating all of them. With Sink nil the
	// historical in-memory path is used and ScanResult.Records is
	// populated.
	Sink output.Sink
	// KeepRecords additionally retains records in ScanResult.Records
	// when a Sink is set (for summaries over streamed scans; costs
	// O(targets) memory again).
	KeepRecords bool
	// CheckpointPath enables periodic, atomically written scan-state
	// checkpoints to this file. A checkpoint's cursor is consistent with
	// the Sink contents: everything below it has been flushed, and when
	// the Sink is an output.Sizer the checkpoint records its length.
	CheckpointPath string
	// CheckpointInterval is the virtual-time period between checkpoints
	// (default 10 virtual seconds).
	CheckpointInterval netsim.Time
	// Resume, when set, validates the checkpoint against this scan's
	// configuration fingerprint and continues from its cursor instead of
	// the beginning of the permutation.
	Resume *checkpoint.State
	// TimeLimit stops the scan after this much virtual time, leaving a
	// final consistent checkpoint (when CheckpointPath is set) and
	// ScanResult.Incomplete true. 0 runs to completion.
	TimeLimit netsim.Time
}

func (c *ScanConfig) withDefaults() ScanConfig {
	out := *c
	if out.SampleFraction == 0 {
		out.SampleFraction = 1
	}
	if out.Rate == 0 {
		out.Rate = 10000
	}
	if out.MaxOutstanding == 0 {
		out.MaxOutstanding = 20000
	}
	if out.Shards == 0 {
		out.Shards = 1
	}
	out.Shard %= out.Shards
	return out
}

// configFields names the identity-defining parts of the configuration:
// anything that changes which targets are probed, in what order, or
// what record a target produces. Rate, concurrency, status reporting
// and output plumbing are deliberately excluded — a resumed scan may
// change those freely. The names are persisted into checkpoints so a
// resume rejection can report exactly which fields differ.
func (c *ScanConfig) configFields(universeSeed uint64, spaceSize uint64) []checkpoint.Field {
	path := netsim.PathParams{}
	if c.Path != nil {
		path = *c.Path
	}
	return checkpoint.FieldList(
		"program", "iwscan",
		"universe_seed", universeSeed,
		"space_size", spaceSize,
		"seed", c.Seed,
		"strategy", int(c.Strategy),
		"sample_fraction", c.SampleFraction,
		"loss", c.Loss,
		"mss_list", c.MSSList,
		"repeats", c.Repeats,
		"max_retries", c.MaxRetries,
		"no_redirect_follow", c.NoRedirectFollow,
		"no_bloat", c.NoBloat,
		"shard", c.Shard,
		"shards", c.Shards,
		"blacklist", c.Blacklist,
		"path_set", c.Path != nil,
		"path", path,
		"flight_triggers", c.Flight.FingerprintKey(),
		"smart", smartKey(c.Smart),
		"hitlist", hitlistKey(c.Hitlist),
	)
}

// smartKey renders the smart plan's fingerprint contribution ("" for a
// plain sweep).
func smartKey(p scanner.SmartPlan) string {
	if p == nil {
		return ""
	}
	return p.FingerprintKey()
}

// hitlistKey renders a hitlist's fingerprint contribution: its length
// plus a content hash ("" for a prefix-space scan).
func hitlistKey(addrs []wire.Addr) string {
	if len(addrs) == 0 {
		return ""
	}
	h := fnv.New64a()
	var buf [4]byte
	for _, a := range addrs {
		binary.LittleEndian.PutUint32(buf[:], uint32(a))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%d:%016x", len(addrs), h.Sum64())
}

// space materializes the configuration's target space against u: the
// universe's announced prefixes, or the explicit hitlist when set,
// minus the blacklist either way.
func (c *ScanConfig) space(u *inet.Universe) *scanner.TargetSpace {
	var space *scanner.TargetSpace
	if len(c.Hitlist) > 0 {
		space = scanner.NewSpaceFromList(c.Hitlist)
	} else {
		space = scanner.NewSpaceFromPrefixes(u.Prefixes())
	}
	space.AddBlacklist(c.Blacklist...)
	return space
}

// ConfigFields returns the named fingerprint fields this configuration
// would produce against u — the fields RunScanChecked records in its
// checkpoints — for callers that need them without running a scan.
func (c *ScanConfig) ConfigFields(u *inet.Universe) []checkpoint.Field {
	cfg := c.withDefaults()
	return cfg.configFields(u.Seed, cfg.space(u).Size())
}

// ScanResult is a completed scan with everything the analyses need.
type ScanResult struct {
	Records     []analysis.Record
	Engine      scanner.Stats
	Net         netsim.Counters
	Scan        core.Counters
	VirtualTime netsim.Time
	// Metrics is the final registry snapshot covering every layer of the
	// run (netsim, core, engine); for parallel runs it is the exact
	// merge of the per-shard snapshots.
	Metrics metrics.Snapshot
	// Incomplete marks a scan stopped by TimeLimit before finishing.
	Incomplete bool
	// MaxBuffered is the high-water mark of records held in the
	// streaming pipeline's reorder buffer — the O(buffer) figure that
	// replaces the old O(targets) accumulation when a Sink is used.
	MaxBuffered int
	// ShardEngines holds the per-shard engine stats of a parallel run
	// (in shard order; empty for serial scans). Engine above is their
	// sum — these are the inputs to per-shard rate and scaling analyses.
	ShardEngines []scanner.Stats
	// Checkpoint is the resume state at the end of a serial run (what
	// CheckpointPath receives, minus the metrics snapshot); nil for
	// parallel runs.
	Checkpoint *checkpoint.State
}

// RunScan scans the universe's whole announced space with one strategy.
// It panics on configuration errors; callers using checkpoint/resume or
// sinks should prefer RunScanChecked.
func RunScan(u *inet.Universe, cfg ScanConfig) *ScanResult {
	res, err := RunScanChecked(u, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return res
}

// RunScanChecked is RunScan with error reporting: resume-fingerprint
// mismatches, checkpoint I/O failures and sink write failures surface
// as errors instead of panics.
func RunScanChecked(u *inet.Universe, cfg ScanConfig) (*ScanResult, error) {
	return runScan(u, cfg, "")
}

// runScan is RunScanChecked with a prefix for the status reporter's
// lines (RunScanParallelChecked tags its reporting shard).
func runScan(u *inet.Universe, cfg ScanConfig, statusLabel string) (*ScanResult, error) {
	cfg = cfg.withDefaults()
	n := netsim.New(cfg.Seed)
	if cfg.Path != nil {
		n.SetPath(*cfg.Path)
	} else {
		n.SetPath(netsim.PathParams{Delay: 10 * netsim.Millisecond, Jitter: 2 * netsim.Millisecond, Loss: cfg.Loss})
	}
	n.SetFactory(u)
	for _, mk := range cfg.FilterFactories {
		n.AddFilter(mk())
	}
	sc := core.NewScanner(n, ScannerAddr, core.Config{Seed: cfg.Seed})
	if cfg.Flight != nil {
		cfg.Flight.Attach(n, ScannerAddr)
		sc.SetFlight(cfg.Flight)
	}
	if cfg.Debug != nil {
		cfg.Debug.AttachShard(int(cfg.Shard), n.Metrics())
		if cfg.Flight != nil {
			cfg.Debug.SetRecorder(cfg.Flight)
		}
		if cfg.Timeseries != nil {
			cfg.Debug.SetTimeseries(cfg.Timeseries)
		}
	}

	space := cfg.space(u)
	fields := cfg.configFields(u.Seed, space.Size())
	fp := checkpoint.FingerprintFields(fields)

	engCfg := scanner.Config{
		Rate:           cfg.Rate,
		MaxOutstanding: cfg.MaxOutstanding,
		Seed:           cfg.Seed,
		SampleFraction: cfg.SampleFraction,
		Shard:          cfg.Shard,
		Shards:         cfg.Shards,
		MaxRetries:     cfg.MaxRetries,
		Smart:          cfg.Smart,
	}
	startSeq := uint64(0)
	var origin netsim.Time // virtual time the resumed segments already ran
	if cfg.Resume != nil {
		if err := cfg.Resume.ValidateConfig(fields); err != nil {
			return nil, err
		}
		shardSt, err := cfg.Resume.Find(cfg.Shard, cfg.Shards)
		if err != nil {
			return nil, err
		}
		cur := shardSt.Cursor
		engCfg.Resume = &cur
		startSeq = cur.Seq
		origin = netsim.Time(cfg.Resume.VirtualNS)
	}

	// Output pipeline: records are emitted through a reorder buffer so
	// they reach the sink in permutation order even though probes
	// complete out of order — the invariant that makes a checkpoint's
	// cursor consistent with the sink contents.
	base := cfg.Sink
	var mem *output.MemorySink
	if base == nil {
		mem = output.NewMemorySink()
		base = mem
	} else if cfg.KeepRecords {
		mem = output.NewMemorySink()
		base = output.Tee(base, mem)
	}
	reorder := output.NewReorderAt(base, startSeq)
	var sinkErr error
	keepErr := func(err error) {
		if err != nil && sinkErr == nil {
			sinkErr = err
		}
	}

	res := &ScanResult{}
	var eng *scanner.Engine
	launch := func(addr wire.Addr, done func()) {
		seq, pos := eng.LaunchCursor()
		tc := core.TargetConfig{
			Strategy: cfg.Strategy, MSSList: cfg.MSSList, Repeats: cfg.Repeats,
			NoRedirectFollow: cfg.NoRedirectFollow, NoBloat: cfg.NoBloat,
		}
		if cfg.Flight != nil {
			cfg.Flight.Begin(n.Now(), addr)
		}
		sc.ProbeTarget(addr, tc, func(tr *core.TargetResult) {
			if tr.Outcome == core.OutcomeUnreachable && eng.Fail(seq) {
				return // engine re-launches; Begin resets the journal then
			}
			rec := enrich(u, tr)
			rec.Seq = pos
			if cfg.Flight != nil {
				verdict, detail := tr.Outcome.String(), ""
				if cfg.FlightClassify != nil {
					verdict, detail = cfg.FlightClassify(&rec)
				}
				cfg.Flight.End(n.Now(), addr, verdict, detail)
			}
			keepErr(reorder.Add(seq, &rec))
			done()
		})
	}
	eng = scanner.NewEngine(n, space, engCfg, launch)

	// Telemetry sampler: rides the simulation like the status reporter
	// and the checkpointer; stopped at engine finish (or after a time
	// limit) so it never keeps RunUntilIdle alive. Its probes read
	// single-threaded engine and sink state on the simulation goroutine.
	var sampler *timeseries.Sampler
	if cfg.Timeseries != nil {
		sampler = timeseries.Attach(n, cfg.Timeseries, int(cfg.Shard), origin)
		sampler.AddProbe(func(set func(string, int64)) {
			set("engine.frontier_lag", eng.FrontierLag())
			set("engine.retry_queue", int64(eng.RetryQueueLen()))
		})
		if async, ok := cfg.Sink.(*output.AsyncSink); ok {
			sampler.AddProbe(func(set func(string, int64)) {
				set("sink.queue_depth", int64(async.Depth()))
				set("sink.queue_cap", int64(async.Cap()))
			})
		}
	}

	// writeCheckpoint flushes the sink and captures the resume state
	// consistent with it and with the telemetry stream, saving it (with a
	// metrics snapshot) when CheckpointPath is set.
	writeCheckpoint := func(complete bool) (*checkpoint.State, error) {
		if err := base.Flush(); err != nil {
			return nil, err
		}
		st := eng.Stats()
		ck := &checkpoint.State{
			Version:     checkpoint.Version,
			Fingerprint: fp,
			Config:      fields,
			Completed:   complete,
			VirtualNS:   int64(origin + n.Now()),
			Shards: []checkpoint.ShardState{{
				Shard: cfg.Shard, Shards: cfg.Shards, Cursor: eng.Cursor(),
				Launched: st.Launched, Completed: st.Completed,
				Skipped: st.Skipped, Pruned: st.Pruned, Retries: st.Retries,
			}},
		}
		if sz, ok := cfg.Sink.(output.Sizer); ok {
			if size, known := sz.Size(); known {
				ck.OutputBytes = &size
			}
		}
		if cfg.Timeseries != nil {
			if size, known := cfg.Timeseries.StreamSize(); known {
				ck.TelemetryBytes = &size
			}
		}
		if cfg.CheckpointPath == "" {
			return ck, nil
		}
		saved := *ck
		var buf bytes.Buffer
		if err := n.Metrics().Snapshot().WriteJSON(&buf); err == nil {
			saved.Metrics = buf.Bytes()
		}
		return ck, checkpoint.Save(cfg.CheckpointPath, &saved)
	}

	finished := false
	var reporter *statusReporter
	var ckTimer netsim.Timer
	eng.OnFinish(func(s scanner.Stats) {
		finished = true
		res.Engine = s
		if reporter != nil {
			reporter.stop()
		}
		if sampler != nil {
			sampler.Stop()
		}
		ckTimer.Cancel()
	})
	if cfg.CheckpointPath != "" {
		interval := cfg.CheckpointInterval
		if interval <= 0 {
			interval = 10 * netsim.Second
		}
		ckTimer.Bind(n, func(any) {
			_, err := writeCheckpoint(false)
			keepErr(err)
			ckTimer.Arm(interval)
		}, nil)
		ckTimer.Arm(interval)
	}
	if cfg.StatusInterval > 0 && cfg.StatusOut != nil {
		reporter = startStatusReporter(cfg.StatusOut, n, eng, statusLabel, cfg.StatusInterval, cfg.Timeseries)
	}
	eng.Start()
	if cfg.TimeLimit > 0 {
		n.Run(cfg.TimeLimit)
		if !finished {
			if reporter != nil {
				reporter.stop()
			}
			if sampler != nil {
				sampler.Stop()
			}
		}
	} else {
		n.RunUntilIdle()
	}
	if !finished {
		res.Incomplete = true
		res.Engine = eng.Stats()
		res.Engine.FinishedAt = n.Now()
	}
	ck, err := writeCheckpoint(finished)
	keepErr(err)
	res.Checkpoint = ck
	res.Net = n.Stats()
	res.Scan = sc.Stats()
	res.VirtualTime = res.Engine.Duration()
	res.Metrics = n.Metrics().Snapshot()
	if mem != nil {
		res.Records = mem.Records()
	}
	res.MaxBuffered = reorder.MaxPending()
	return res, sinkErr
}

// enrich attaches AS and rDNS metadata to a target result.
func enrich(u *inet.Universe, tr *core.TargetResult) analysis.Record {
	r := analysis.FromTarget(tr)
	if as := u.ASOf(tr.Addr); as != nil {
		r.ASN = as.ASN
		r.ASName = as.Name
	}
	r.RDNS = u.ReverseDNS(tr.Addr)
	return r
}

// RunPopularScan probes the universe's synthetic Alexa-style list with
// hostnames available (Host header and SNI), as §4.1's popular-host scan
// does.
func RunPopularScan(u *inet.Universe, n int, strategy core.Strategy, seed uint64) *ScanResult {
	net := netsim.New(seed)
	net.SetPath(netsim.PathParams{Delay: 10 * netsim.Millisecond, Jitter: 2 * netsim.Millisecond})
	net.SetFactory(u)
	sc := core.NewScanner(net, ScannerAddr, core.Config{Seed: seed})

	list := u.PopularList(n)
	res := &ScanResult{}
	addrs := make([]wire.Addr, len(list))
	names := make(map[wire.Addr]string, len(list))
	for i, ph := range list {
		addrs[i] = ph.Addr
		names[ph.Addr] = ph.Name
	}
	space := scanner.NewSpaceFromList(addrs)
	launch := func(addr wire.Addr, done func()) {
		tc := core.TargetConfig{Strategy: strategy, SNI: names[addr]}
		sc.ProbeTarget(addr, tc, func(tr *core.TargetResult) {
			res.Records = append(res.Records, enrich(u, tr))
			done()
		})
	}
	eng := scanner.NewEngine(net, space, scanner.Config{Rate: 10000, MaxOutstanding: 20000, Seed: seed}, launch)
	eng.OnFinish(func(s scanner.Stats) { res.Engine = s })
	eng.Start()
	net.RunUntilIdle()
	res.Net = net.Stats()
	res.Scan = sc.Stats()
	res.VirtualTime = res.Engine.Duration()
	res.Metrics = net.Metrics().Snapshot()
	return res
}
