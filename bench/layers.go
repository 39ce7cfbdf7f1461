package main

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"iwscan/internal/analysis"
	"iwscan/internal/checkpoint"
	"iwscan/internal/core"
	"iwscan/internal/events"
	"iwscan/internal/experiments"
	"iwscan/internal/httpsim"
	"iwscan/internal/inet"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
	"iwscan/internal/prefixtree"
	"iwscan/internal/scanner"
	"iwscan/internal/stats"
	"iwscan/internal/tlssim"
	"iwscan/internal/wire"
)

// What the traced pass is held to (ROADMAP item 1): the ledger explains
// the untraced wall time, and watching stays cheap. Both are ratios of
// wall times, so a busy host moves them; missing one is reported on
// standard error and in the metric, not as a failed run.
const (
	maxLedgerGap     = 0.15
	maxTraceOverhead = 1.10
	// minTracedPasses is how many untraced/traced/counterpart triples
	// the pass runs at least. The scans are deterministic and host noise
	// only ever adds time, so each side's wall time is the minimum over
	// the passes.
	minTracedPasses = 3
	// warnMinWall is the shortest scan the two limits are applied to.
	// Where the collector's cycles fall moves a 50 ms scan by a tenth on
	// its own, whatever is traced.
	warnMinWall = 500 * time.Millisecond
)

// timeCalls runs fn until budget is spent (at least twice, after one
// untimed call) and returns the mean nanoseconds and allocations per
// unit of work; fn reports how many units one call did.
func timeCalls(budget time.Duration, fn func() int) (nsPerUnit, allocsPerUnit float64) {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	units, calls := 0, 0
	for calls < 2 || time.Since(start) < budget {
		units += fn()
		calls++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return ratio(float64(elapsed), float64(units)), ratio(float64(after.Mallocs-before.Mallocs), float64(units))
}

// layers is the traced pass of a scan workload plus the control-plane
// figures from a serve round.
func (s *scanInstance) layers(budget time.Duration, traceOut string) (map[string]float64, error) {
	inst, err := newServeInstance(s.env)
	if err != nil {
		return nil, err
	}
	sv := inst.(*serveInstance)
	defer sv.close()
	return layersOf(s, sv, budget, traceOut)
}

// layers for serve_jobs: the control plane from a round, the scan
// layers from job 0's scan run unsegmented.
func (s *serveInstance) layers(budget time.Duration, traceOut string) (map[string]float64, error) {
	spec := jobSpec(s.env, 0)
	scan, err := newScanInstance(s.env, scanJob{shards: 1, cfg: experiments.ScanConfig{
		Seed: spec.Seed, Strategy: core.StrategyHTTP, SampleFraction: spec.SampleFraction,
		Rate: spec.Rate, MSSList: spec.MSSList, Repeats: spec.Repeats,
	}}, "http")
	if err != nil {
		return nil, err
	}
	defer scan.close()
	return layersOf(scan, s, budget, traceOut)
}

// layers for rescan_sparse: the first of its scans stands for all.
func (r *rescanInstance) layers(budget time.Duration, traceOut string) (map[string]float64, error) {
	return r.scans[0].layers(budget, traceOut)
}

// layersOf is every per-layer metric: the scan layers from scan, the
// control plane from one round of sv.
func layersOf(scan *scanInstance, sv *serveInstance, budget time.Duration, traceOut string) (map[string]float64, error) {
	out, err := scan.scanLayers(budget, traceOut)
	if err != nil {
		return nil, err
	}
	if _, err := sv.rep(); err != nil {
		return nil, err
	}
	control, err := sv.controlPlane(scan.layerBudget(budget))
	if err != nil {
		return nil, err
	}
	maps.Copy(out, control)
	return out, nil
}

// layerBudget is one driver's share of the run: the traced passes get
// half of it, the drivers split the rest.
func (s *scanInstance) layerBudget(budget time.Duration) time.Duration {
	if s.env.quick {
		return time.Millisecond
	}
	return budget / 2 / 32
}

// scanLayers runs untraced, traced and counterpart (serial <-> 2-shard)
// scans in turn for half the budget, holding each to the workload's
// bytes, and then runs the layer drivers on what the scans produced.
func (s *scanInstance) scanLayers(budget time.Duration, traceOut string) (map[string]float64, error) {
	out := make(map[string]float64)
	plain, traced, other := filepath.Join(s.dir, "plain.iwb"), filepath.Join(s.dir, "traced.iwb"), filepath.Join(s.dir, "other.iwb")
	counterpart := s.job
	counterpart.shards = 3 - s.job.shards // 1 <-> 2

	// timed runs one scan from a collected heap, so that none inherits
	// the garbage (and the collector's pacing) of the one before.
	timed := func(scan func() error) (float64, error) {
		runtime.GC()
		t0 := time.Now()
		err := scan()
		return float64(time.Since(t0)), err
	}
	plainWall, tracedWall, otherWall := math.Inf(1), math.Inf(1), math.Inf(1)
	// best is the traced pass with the least critical-path time; the
	// ledger is read from it, as the wall times are from their minima.
	var best, sharded *composed
	// A tracer sized to the scan: the first pass grows it, later ones
	// start with the room the pass before needed.
	spanCap := 1 << 12
	start := time.Now()
	for pass := 1; ; pass++ {
		var res *experiments.ScanResult
		wall, err := timed(func() (err error) { res, err = s.job.run(s.u, plain); return })
		if err != nil {
			return nil, err
		}
		if err := s.verify(plain, res, &repSample{}); err != nil {
			return nil, err
		}
		plainWall = min(plainWall, wall)

		var tr *composed
		wall, err = timed(func() (err error) { tr, err = s.job.runComposed(s.u, traced, spanCap); return })
		if err != nil {
			return nil, err
		}
		if err := s.sameBytes(traced, "traced composition"); err != nil {
			return nil, err
		}
		tracedWall = min(tracedWall, wall)
		if best == nil || tr.critical < best.critical {
			best = tr
		}

		var cp *composed
		wall, err = timed(func() (err error) { cp, err = counterpart.runComposed(s.u, other, 0); return })
		if err != nil {
			return nil, err
		}
		// Shards draw loss and jitter from their own generators, so only
		// a lossless path promises the same bytes for any shard count.
		if s.job.lossless() {
			if err := s.sameBytes(other, fmt.Sprintf("%d-shard run", counterpart.shards)); err != nil {
				return nil, err
			}
		}
		otherWall = min(otherWall, wall)

		for _, t := range tr.tracers {
			if n := len(t.spans) + len(t.spans)/8; n > spanCap {
				spanCap = n
			}
		}
		sharded = cp
		if s.job.shards > 1 {
			sharded = tr
		}

		if s.env.quick || time.Since(start) >= budget/2 && pass >= minTracedPasses {
			break
		}
	}
	overhead := tracedWall / plainWall
	// Shards overlap in time: the slowest shard's ledger total (critical)
	// is what the wall clock saw.
	gap := math.Abs(float64(best.critical)-plainWall) / plainWall
	if plainWall >= float64(warnMinWall) && gap > maxLedgerGap {
		fmt.Fprintf(os.Stderr, "bench: ledger gap %.3f: layer self times miss the untraced wall time by more than %.2f\n", gap, maxLedgerGap)
	}
	if plainWall >= float64(warnMinWall) && overhead > maxTraceOverhead {
		fmt.Fprintf(os.Stderr, "bench: tracing overhead %.3f exceeds %.2f\n", overhead, maxTraceOverhead)
	}
	if traceOut != "" {
		if err := writeSpans(traceOut, best.tracers); err != nil {
			return nil, err
		}
	}
	out["trace.overhead_ratio"] = overhead
	out["trace.ledger_gap_ratio"] = gap
	if s.job.shards > 1 {
		out["experiments.shard_speedup"] = otherWall / plainWall
	} else {
		out["experiments.shard_speedup"] = plainWall / otherWall
	}

	perProbeUS := func(layers ...layer) float64 {
		var ns int64
		for _, l := range layers {
			ns += best.ledger.SelfNS[l]
		}
		return ratio(float64(ns)/1e3, float64(best.probes))
	}
	out["experiments.compose_self_us_per_probe"] = perProbeUS(layerScan)
	out["netsim.residual_self_us_per_probe"] = perProbeUS(layerRun)
	out["inet.self_us_per_probe"] = perProbeUS(layerCreateHost)
	out["tcpstack.self_us_per_probe"] = perProbeUS(layerHostPacket)
	out["core.handle_self_us_per_probe"] = perProbeUS(layerCoreHandle)
	out["core.probe_target_self_us_per_probe"] = perProbeUS(layerProbeTarget)
	out["analysis.self_us_per_probe"] = perProbeUS(layerEnrich)
	out["output.self_us_per_probe"] = perProbeUS(layerReorder, layerSink)
	out["tcpstack.handle_ns_per_packet"] = ratio(float64(best.ledger.SelfNS[layerHostPacket]), float64(best.ledger.Count[layerHostPacket]))
	out["tcpstack.retransmits_per_probe"] = ratio(float64(best.hostRetx), float64(best.probes))
	out["inet.hosts_per_probe"] = ratio(float64(best.hostsCreated), float64(best.probes))

	res := s.lastRes
	launched := float64(res.Engine.Launched)
	out["scanner.launch_ratio"] = ratio(launched, float64(s.slots))
	out["scanner.retries_per_target"] = ratio(float64(res.Engine.Retries), launched)
	out["core.probes_per_target"] = ratio(float64(res.Scan.ProbesStarted), launched)
	out["netsim.events_per_probe"] = ratio(float64(res.Metrics.Counters["netsim.events_dispatched"]), float64(res.Scan.ProbesStarted))
	out["netsim.packets_per_probe"] = ratio(float64(res.Net.PacketsSent), float64(res.Scan.ProbesStarted))
	miss := float64(res.Metrics.Counters["netsim.pool_miss"])
	out["netsim.pool_miss_ratio"] = ratio(miss, miss+float64(res.Metrics.Counters["netsim.packets_pooled"]))
	out["output.reorder_max_pending"] = float64(best.reorderMax)
	out["output.merge_max_pending"] = float64(sharded.mergeMax)
	var launches []float64
	for _, st := range sharded.engines {
		launches = append(launches, float64(st.Launched))
	}
	out["experiments.shard_launch_skew"] = ratio(slices.Max(launches), slices.Min(launches))

	if err := s.drivers(s.layerBudget(budget), best, out); err != nil {
		return nil, err
	}
	return out, nil
}

// sameBytes holds another run of the same scan to the workload's digest.
func (s *scanInstance) sameBytes(path, what string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if d := digestOf(data); d != s.sha256 {
		return fmt.Errorf("%s wrote different IWB1 bytes: sha256 %s, untraced run %s", what, d, s.sha256)
	}
	return nil
}

// discard counts the bytes a codec writes.
type discard struct{ n int64 }

func (d *discard) Write(p []byte) (int, error) { d.n += int64(len(p)); return len(p), nil }

// dropSink swallows records (the far end of reorder and merge drivers).
type dropSink struct{}

func (dropSink) WriteRecord(*analysis.Record) error { return nil }
func (dropSink) Flush() error                       { return nil }
func (dropSink) Close() error                       { return nil }

type nopNode struct{}

func (nopNode) HandlePacket([]byte) {}

type nopFactory struct{}

func (nopFactory) CreateHost(*netsim.Network, wire.Addr) netsim.Node { return nopNode{} }

var sinkhole uint64 // keeps driver results alive

// drivers runs the fixed-seed loops over single exported functions, fed
// with the workload's own addresses, packets, results and records.
func (s *scanInstance) drivers(each time.Duration, tr *composed, out map[string]float64) error {
	u, cfg, recs := s.u, s.job.cfg, s.lastRecs
	if len(recs) == 0 || len(tr.packets) == 0 || len(tr.results) == 0 {
		return fmt.Errorf("traced pass left nothing to replay (%d records, %d packets, %d results)", len(recs), len(tr.packets), len(tr.results))
	}
	for i := range recs {
		recs[i].Seq = uint64(i) // not serialized; the reorder and merge drivers key on it
	}
	space := scanner.NewSpaceFromPrefixes(u.Prefixes())

	// scanner: the permutation walk alone, plain and under a plan.
	sampler := scanner.NewSampler(cfg.Seed, cfg.SampleFraction)
	out["scanner.walk_ns_per_slot"], _ = timeCalls(each, func() int {
		sh := scanner.NewShard(space.Size(), cfg.Seed, 0, 1)
		n := 0
		for idx, ok := sh.Next(); ok; idx, ok = sh.Next() {
			if a := space.At(idx); sampler.Keep(idx) {
				sinkhole += uint64(a)
			}
			n++
		}
		return n
	})

	// prefixtree: train on the workload's records unless it brought a plan.
	planCfg := prefixtree.PlanConfig{Threshold: 0.01, Seed: cfg.Seed}
	var model *prefixtree.Model
	out["prefixtree.observe_ns_per_record"], _ = timeCalls(each, func() int {
		model = prefixtree.New()
		model.ObserveRecords(recs)
		return len(recs)
	})
	var plan *prefixtree.Plan
	buildNS, _ := timeCalls(each, func() int {
		plan = prefixtree.NewPlan(model, planCfg)
		return 1
	})
	out["prefixtree.plan_build_ms"] = buildNS / 1e6
	if own, ok := cfg.Smart.(*prefixtree.Plan); ok {
		plan = own
	}
	out["prefixtree.decide_ns_per_addr"], _ = timeCalls(each, func() int {
		for i := range recs {
			sinkhole += uint64(plan.Decide(recs[i].Addr))
		}
		return len(recs)
	})
	out["scanner.smart_walk_ns_per_slot"], _ = timeCalls(each, func() int {
		sh := scanner.NewSmartShard(space, cfg.Seed, 0, 1, plan)
		for _, ok := sh.Next(); ok; _, ok = sh.Next() {
		}
		return 2 * int(space.Size()) // two phases, each a full cycle
	})
	if err := s.rescanEconomics(plan, out); err != nil {
		return err
	}

	// scanner: the engine around a launch that completes at once.
	out["scanner.launch_ns_per_target"], _ = timeCalls(each, func() int {
		n := netsim.New(cfg.Seed)
		eng := scanner.NewEngine(n, space, scanner.Config{
			Rate: cfg.Rate, MaxOutstanding: 20000, Seed: cfg.Seed,
			SampleFraction: cfg.SampleFraction, Smart: cfg.Smart,
		}, func(_ wire.Addr, done func()) { done() })
		eng.Start()
		n.RunUntilIdle()
		return int(eng.Stats().Launched)
	})

	// wire: decode and re-encode the workload's own packets.
	var ih wire.IPv4Header
	var th wire.TCPHeader
	buf := make([]byte, 0, netsim.DefaultPacketCap)
	var codecErr error
	out["wire.codec_ns_per_packet"], out["wire.codec_allocs_per_packet"] = timeCalls(each, func() int {
		for _, pkt := range tr.packets {
			seg, err := wire.DecodeIPv4Into(&ih, pkt)
			if err != nil {
				codecErr = err
				continue
			}
			payload, err := wire.DecodeTCPInto(&th, ih.Src, ih.Dst, seg)
			if err != nil {
				codecErr = err
				continue
			}
			buf = wire.AppendTCPPacket(buf[:0], &ih, &th, payload)
		}
		return len(tr.packets)
	})
	if codecErr != nil {
		return fmt.Errorf("wire driver: %w", codecErr)
	}

	// netsim: deliveries through a queue as deep as the packet sample,
	// and timers armed against that many pending ones.
	out["netsim.deliver_ns_per_packet"], _ = timeCalls(each, func() int {
		n := netsim.New(cfg.Seed)
		n.SetPath(netsim.PathParams{Delay: 10 * netsim.Millisecond, Jitter: 2 * netsim.Millisecond})
		n.SetFactory(nopFactory{})
		for _, pkt := range tr.packets {
			p := n.GetPacket()
			p.B = append(p.B, pkt...)
			n.SendPacket(p)
		}
		n.RunUntilIdle()
		return len(tr.packets)
	})
	timers := netsim.New(cfg.Seed)
	fired := 0
	for i := 0; i < keepPackets; i++ {
		timers.After(netsim.Hour+netsim.Time(i), func() { fired++ })
	}
	out["netsim.timer_ns_per_arm_cancel"], _ = timeCalls(each, func() int {
		for i := 0; i < 1024; i++ {
			timers.After(netsim.Second+netsim.Time(i%7)*netsim.Millisecond, func() { fired++ }).Cancel()
		}
		return 1024
	})
	out["netsim.timer_ns_per_fire"], _ = timeCalls(each, func() int {
		for i := 0; i < 1024; i++ {
			timers.After(netsim.Time(1+i%7)*netsim.Millisecond, func() { fired++ })
		}
		timers.Run(timers.Now() + netsim.Second)
		return 1024
	})
	sinkhole += uint64(fired)

	// inet: spec lookup for every probed address, materialisation for
	// the ones that hold a host.
	var httpHosts, tlsHosts []*inet.HostSpec
	var live []wire.Addr
	for i := range recs {
		spec := u.HostAt(recs[i].Addr)
		if spec == nil {
			continue
		}
		live = append(live, spec.Addr)
		if spec.HTTPLive && len(httpHosts) < 256 {
			httpHosts = append(httpHosts, spec)
		}
		if spec.TLSLive && len(tlsHosts) < 256 {
			tlsHosts = append(tlsHosts, spec)
		}
	}
	if len(httpHosts) == 0 || len(tlsHosts) == 0 {
		return fmt.Errorf("workload probed %d HTTP and %d TLS hosts; the host drivers need one of each", len(httpHosts), len(tlsHosts))
	}
	out["inet.hostat_ns_per_addr"], _ = timeCalls(each, func() int {
		for i := range recs {
			if u.HostAt(recs[i].Addr) != nil {
				sinkhole++
			}
		}
		return len(recs)
	})
	hostNet := netsim.New(cfg.Seed)
	out["inet.create_host_ns"], out["inet.create_host_allocs"] = timeCalls(each, func() int {
		for _, a := range live {
			if u.CreateHost(hostNet, a) != nil {
				hostNet.Unregister(a)
			}
		}
		return len(live)
	})

	// httpsim, tlssim: what the servers build per connection.
	out["httpsim.page_ns"], _ = timeCalls(each, func() int {
		for _, h := range httpHosts {
			sinkhole += uint64(len(httpsim.BuildResponse(200, "OK", httpsim.Page(h.HTTPCfg.Seed, h.HTTPCfg.PageLen))))
		}
		return len(httpHosts)
	})
	out["tlssim.flight_ns"], _ = timeCalls(each, func() int {
		for _, h := range tlsHosts {
			chain := tlssim.GenerateChain(stats.NewRNG(h.TLSCfg.Seed), h.TLSCfg.ChainLen)
			flight := tlssim.EncodeHandshake(nil, tlssim.Handshake{Type: tlssim.HandshakeCertificate, Body: tlssim.EncodeCertificateChain(chain)})
			sinkhole += uint64(len(tlssim.EncodeRecord(nil, tlssim.Record{Type: tlssim.RecordHandshake, Version: tlssim.VersionTLS12, Payload: flight})))
		}
		return len(tlsHosts)
	})

	// tcpstack: one host driven by hand, SYN to IW burst to RST.
	target := httpHosts[0]
	port, request := uint16(80), httpsim.BuildRequest("/", target.Addr.String(), "Connection", "close", "Accept", "*/*")
	if cfg.Strategy == core.StrategyTLS {
		target, port = tlsHosts[0], 443
		request = tlssim.BuildClientHello(stats.NewRNG(cfg.Seed), "")
	}
	hand := newHandDriver(u, target.Addr, port, request)
	out["tcpstack.handshake_burst_ns"], out["tcpstack.handshake_burst_allocs"] = timeCalls(each, hand.connection)
	if hand.dataSegments == 0 {
		return fmt.Errorf("tcpstack driver: host %s sent no data", target.Addr)
	}

	// core: whole targets against that one host.
	probeNet := netsim.New(cfg.Seed)
	probeNet.SetPath(netsim.PathParams{Delay: 10 * netsim.Millisecond, Jitter: 2 * netsim.Millisecond})
	probeNet.SetFactory(u)
	sc := core.NewScanner(probeNet, experiments.ScannerAddr, core.Config{Seed: cfg.Seed})
	tc := core.TargetConfig{Strategy: cfg.Strategy, MSSList: cfg.MSSList, Repeats: cfg.Repeats}
	probeNS, _ := timeCalls(each, func() int {
		before := sc.Stats().ProbesStarted
		sc.ProbeTarget(target.Addr, tc, func(*core.TargetResult) {})
		probeNet.RunUntilIdle()
		return int(sc.Stats().ProbesStarted - before)
	})
	out["core.single_host_probe_us"] = probeNS / 1e3

	// analysis: the enrich step over the workload's own target results.
	out["analysis.enrich_ns_per_record"], _ = timeCalls(each, func() int {
		for i := range tr.results {
			r := enrich(u, &tr.results[i])
			sinkhole += uint64(r.ASN)
		}
		return len(tr.results)
	})

	// output: codecs, reorder and merge over the workload's records.
	var iwb1 bytes.Buffer
	for format, name := range map[string]string{"bin": "iwb1", "csv": "csv", "jsonl": "jsonl"} {
		var codecErr error
		var written int64
		ns, _ := timeCalls(each, func() int {
			var w io.Writer = &discard{}
			if format == "bin" {
				iwb1.Reset()
				w = &iwb1
			}
			sink, err := output.NewFileSink(w, format, false)
			if err == nil {
				err = output.WriteAll(sink, recs)
			}
			if err == nil {
				err = sink.Close()
			}
			if err != nil {
				codecErr = err
			}
			if d, ok := w.(*discard); ok {
				written = d.n
			}
			return len(recs)
		})
		if codecErr != nil {
			return fmt.Errorf("%s codec driver: %w", name, codecErr)
		}
		out["output."+name+"_write_ns_per_record"] = ns
		sinkhole += uint64(written)
	}
	out["output.bytes_per_record"] = ratio(float64(iwb1.Len()), float64(len(recs)))
	var readErr error
	out["output.iwb1_read_ns_per_record"], _ = timeCalls(each, func() int {
		got, err := output.ReadBinary(bytes.NewReader(iwb1.Bytes()))
		if err != nil || len(got) != len(recs) {
			readErr = fmt.Errorf("read %d of %d records: %v", len(got), len(recs), err)
		}
		return len(recs)
	})
	if readErr != nil {
		return fmt.Errorf("iwb1 read driver: %w", readErr)
	}
	// Completions arrive out of order within a window; reverse runs of
	// 64 are the fixed stand-in for that.
	out["output.reorder_ns_per_record"], _ = timeCalls(each, func() int {
		ro := output.NewReorderAt(dropSink{}, 0)
		for base := 0; base < len(recs); base += 64 {
			end := base + 64
			if end > len(recs) {
				end = len(recs)
			}
			for i := end - 1; i >= base; i-- {
				ro.Add(uint64(i), &recs[i])
			}
		}
		return len(recs)
	})
	out["output.merge_ns_per_record"], _ = timeCalls(each, func() int {
		_, handles := output.NewMerge(dropSink{}, 2)
		var wg sync.WaitGroup
		for shard, h := range handles {
			wg.Add(1)
			go func(shard int, h output.Sink) {
				defer wg.Done()
				for i := shard; i < len(recs); i += 2 {
					h.WriteRecord(&recs[i])
				}
				h.Close()
			}(shard, h)
		}
		wg.Wait()
		return len(recs)
	})

	// checkpoint: the state a job segment saves, fsync included.
	fields := cfg.ConfigFields(u)
	var snapshot bytes.Buffer
	if err := s.lastRes.Metrics.WriteJSON(&snapshot); err != nil {
		return err
	}
	st := tr.engines[0]
	state := &checkpoint.State{
		Fingerprint: checkpoint.FingerprintFields(fields), Config: fields, Completed: true,
		Metrics: snapshot.Bytes(),
		Shards: []checkpoint.ShardState{{
			Shards: 1, Cursor: tr.cursors[0], Launched: st.Launched, Completed: st.Completed,
			Skipped: st.Skipped, Pruned: st.Pruned, Retries: st.Retries,
		}},
	}
	var saveErr error
	saveNS, _ := timeCalls(each, func() int {
		if err := checkpoint.Save(filepath.Join(s.dir, "scan.ck"), state); err != nil {
			saveErr = err
		}
		return 1
	})
	if saveErr != nil {
		return fmt.Errorf("checkpoint driver: %w", saveErr)
	}
	out["checkpoint.save_ms"] = saveNS / 1e6

	// metrics: a snapshot of a scan's registry (netsim, core, engine).
	snapNS, _ := timeCalls(each, func() int {
		sinkhole += uint64(len(probeNet.Metrics().Snapshot().Counters))
		return 1
	})
	out["metrics.snapshot_us"] = snapNS / 1e3
	return nil
}

// rescanEconomics reports what a smart rescan under plan saves and
// keeps, relative to the workload's own scan. rescan_sparse measured
// both in its reps; the other workloads run the rescan once here.
func (s *scanInstance) rescanEconomics(plan *prefixtree.Plan, out map[string]float64) error {
	if s.trainHosts != nil {
		out["prefixtree.probes_saved_ratio"] = s.probesSaved(s.lastRes)
		out["prefixtree.hosts_found_ratio"] = 1 // verify fails the rep otherwise
		return nil
	}
	full := prefixtree.Hitlist(s.lastRecs)
	smart := scanJob{shards: 1, cfg: s.job.cfg}
	smart.cfg.Smart = plan
	path := filepath.Join(s.dir, "smart.iwb")
	res, err := smart.run(s.u, path)
	if err != nil {
		return err
	}
	recs, err := output.ReadRecordsFile(path)
	if err != nil {
		return err
	}
	found := make(map[wire.Addr]bool)
	for _, a := range prefixtree.Hitlist(recs) {
		found[a] = true
	}
	kept := 0
	for _, a := range full {
		if found[a] {
			kept++
		}
	}
	out["prefixtree.probes_saved_ratio"] = 1 - ratio(float64(res.Scan.ProbesStarted), float64(s.lastRes.Scan.ProbesStarted))
	out["prefixtree.hosts_found_ratio"] = ratio(float64(kept), float64(len(full)))
	return nil
}

// handDriver plays the scanner's side of one connection against one
// materialised host: SYN, ACK plus request, then RST once the burst is
// in, stepping the network only as far as each exchange needs so the
// host's RTO never fires.
type handDriver struct {
	n            *netsim.Network
	host         wire.Addr
	port         uint16
	request      []byte
	srcPort      uint16
	synAckSeq    uint32
	dataSegments int
}

const handISN = 1000

func newHandDriver(u *inet.Universe, host wire.Addr, port uint16, request []byte) *handDriver {
	d := &handDriver{n: netsim.New(1), host: host, port: port, request: request, srcPort: 20000}
	d.n.SetPath(netsim.PathParams{Delay: netsim.Millisecond})
	d.n.SetFactory(u)
	d.n.Register(experiments.ScannerAddr, d)
	return d
}

func (d *handDriver) HandlePacket(pkt []byte) {
	var ip wire.IPv4Header
	var tcp wire.TCPHeader
	seg, err := wire.DecodeIPv4Into(&ip, pkt)
	if err != nil {
		return
	}
	data, err := wire.DecodeTCPInto(&tcp, ip.Src, ip.Dst, seg)
	if err != nil || tcp.DstPort != d.srcPort {
		return
	}
	if tcp.HasFlag(wire.FlagSYN | wire.FlagACK) {
		d.synAckSeq = tcp.Seq
	}
	if len(data) > 0 {
		d.dataSegments++
	}
}

func (d *handDriver) send(flags byte, seq, ack uint32, mss uint16, payload []byte) {
	h := wire.NewTCPHeader()
	h.SrcPort, h.DstPort, h.Seq, h.Ack, h.Flags, h.Window, h.MSS = d.srcPort, d.port, seq, ack, flags, 65535, mss
	p := d.n.GetPacket()
	p.B = wire.AppendTCPPacket(p.B, &wire.IPv4Header{
		Protocol: wire.ProtoTCP, Src: experiments.ScannerAddr, Dst: d.host, Flags: wire.IPFlagDF,
	}, h, payload)
	d.n.SendPacket(p)
	d.n.Run(d.n.Now() + 5*netsim.Millisecond)
}

func (d *handDriver) connection() int {
	d.srcPort++
	if d.srcPort < 20000 {
		d.srcPort = 20000
	}
	d.send(wire.FlagSYN, handISN, 0, 64, nil)
	d.send(wire.FlagACK|wire.FlagPSH, handISN+1, d.synAckSeq+1, 0, d.request)
	d.send(wire.FlagRST, handISN+1+uint32(len(d.request)), 0, 0, nil)
	return 1
}

// controlPlane reduces the last serve round to the jobs.* and events.*
// figures: client-side call timings, and dispatch waits, segments and
// event counts read back from the round's own journal.
func (s *serveInstance) controlPlane(each time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	t := s.last
	var submit, fetch, polls []float64
	var launched, frontier int64
	for _, r := range t.results {
		if r.err != nil {
			continue
		}
		submit = append(submit, float64(r.submit)/float64(time.Millisecond))
		fetch = append(fetch, float64(r.fetch)/float64(time.Millisecond))
		polls = append(polls, float64(r.polls))
		launched += r.launched
		frontier += int64(r.frontier)
	}
	jobsDone := float64(len(submit))
	out["jobs.submit_ms_p50"] = median(submit)
	out["jobs.artifact_fetch_ms_p50"] = median(fetch)
	out["jobs.longpoll_calls_per_job"] = stats.Mean(polls)
	out["jobs.reprobe_ratio"] = ratio(float64(launched), float64(frontier))

	// A job waits from when it became dispatchable — submitted, or its
	// previous segment ended — until the dispatch that picks it.
	var waits, segments []float64
	ready := make(map[string]int64)
	jobEvents := 0
	for _, ev := range t.events {
		if ev.Job == "" {
			continue
		}
		jobEvents++
		switch ev.Type {
		case events.TypeJobSubmitted:
			ready[ev.Job] = ev.WallNS
		case events.TypeDispatch:
			waits = append(waits, float64(ev.WallNS-ready[ev.Job])/1e6)
		case events.TypeSegmentEnd:
			ready[ev.Job] = ev.WallNS
			if ns, ok := ev.Fields["wall_ns"].(float64); ok {
				segments = append(segments, ns/1e6)
			}
		}
	}
	out["jobs.dispatch_wait_ms_p50"] = median(waits)
	out["jobs.segment_ms_p50"] = median(segments)
	out["jobs.segments_per_job"] = ratio(float64(len(segments)), jobsDone)
	out["events.events_per_job"] = ratio(float64(jobEvents), jobsDone)

	// events: the round's own events appended to a fresh journal.
	dir, err := os.MkdirTemp(s.dir, "journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	journal, err := events.Open(dir)
	if err != nil {
		return nil, err
	}
	defer journal.Close()
	replay := func() int {
		for _, ev := range t.events {
			journal.Append(ev) // Append assigns the sequence
		}
		return len(t.events)
	}
	out["events.append_ns_per_event"], _ = timeCalls(each, replay)
	var syncs []float64
	for i := 0; i < 5; i++ {
		replay()
		t0 := time.Now()
		if err := journal.Sync(); err != nil {
			return nil, err
		}
		syncs = append(syncs, float64(time.Since(t0))/float64(time.Millisecond))
	}
	out["events.sync_ms"] = median(syncs)
	return out, nil
}
