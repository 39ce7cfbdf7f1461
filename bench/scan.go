package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"runtime"
	"sync"

	"iwscan/internal/analysis"
	"iwscan/internal/core"
	"iwscan/internal/experiments"
	"iwscan/internal/inet"
	"iwscan/internal/netsim"
	"iwscan/internal/output"
	"iwscan/internal/scanner"
	"iwscan/internal/tcpstack"
	"iwscan/internal/wire"
)

// scanJob is one scan a workload runs: the configuration (its Sink is
// filled per run) and the shard count (1 = serial).
type scanJob struct {
	cfg    experiments.ScanConfig
	shards int
}

// fileSink opens path and returns the sink stack `iwscan -format bin`
// writes through — an IWB1 file codec behind a bounded async queue —
// plus a function that drains, closes and reports the first error.
func fileSink(path string) (output.Sink, func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	codec, err := output.NewFileSink(f, "bin", false)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	sink := output.NewAsyncSink(codec, 4096)
	return sink, func() error {
		err := sink.Close()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}, nil
}

// run executes the scan through the repo's own entry points, streaming
// IWB1 to path. This is the untraced, measured path.
func (j scanJob) run(u *inet.Universe, path string) (*experiments.ScanResult, error) {
	sink, closeSink, err := fileSink(path)
	if err != nil {
		return nil, err
	}
	cfg := j.cfg
	cfg.Sink = sink
	res, err := experiments.RunScanParallelChecked(u, cfg, j.shards)
	if cerr := closeSink(); err == nil {
		err = cerr
	}
	return res, err
}

// lossless reports whether the scan's path drops, reorders or duplicates
// nothing, which is when its output does not depend on the shard count.
func (j scanJob) lossless() bool {
	return j.cfg.Path == nil && j.cfg.Loss == 0 && len(j.cfg.FilterFactories) == 0
}

// composed is what a re-composed (traceable) run reports back.
type composed struct {
	ledger       layerTotals
	critical     int64 // the slowest shard's ledger total: what the wall clock saw
	tracers      []*tracer
	probes       int64 // core.Counters.ProbesStarted, all shards
	hostsCreated int64
	hostRetx     int64            // tcpstack.Counters.Retransmits over every created host
	engines      []scanner.Stats  // per shard
	cursors      []scanner.Cursor // per shard: the final frontier, as a checkpoint saves it
	reorderMax   int              // highest Reorder.MaxPending of any shard
	mergeMax     int              // Merge.MaxPending (0 for a serial run)
	// Replay material for the layer drivers, from shard 0 of a traced run:
	// the first packets delivered to hosts and the first target results.
	packets [][]byte
	results []core.TargetResult
}

// runComposed runs the same scan as run, but assembled here from the
// layers' exported constructors in the order experiments.RunScanChecked
// uses, so that every call into a layer can be wrapped in a span. The
// byte-identity gate in the traced pass is what keeps this copy honest.
// spanCap is the room each shard's tracer starts with; at 0 the run is
// untraced and the wrappers are left out entirely.
func (j scanJob) runComposed(u *inet.Universe, path string, spanCap int) (*composed, error) {
	sink, closeSink, err := fileSink(path)
	if err != nil {
		return nil, err
	}
	shards := j.shards
	if shards < 1 {
		shards = 1
	}
	out := &composed{}
	sinks := []output.Sink{sink}
	var merged *output.Merge
	if shards > 1 {
		merged, sinks = output.NewMerge(sink, shards)
	}
	parts := make([]*composed, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			// Same pinning as RunScanParallelChecked's shard loops.
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			cfg := j.cfg
			if shards > 1 {
				cfg.Shard, cfg.Shards = uint64(shard), uint64(shards)
			}
			var tr *tracer
			if spanCap > 0 {
				tr = newTracer(spanCap)
			}
			parts[shard], errs[shard] = composeShard(u, cfg, sinks[shard], tr)
			if shards > 1 {
				if cerr := sinks[shard].Close(); errs[shard] == nil {
					errs[shard] = cerr
				}
			}
		}(i)
	}
	wg.Wait()
	if cerr := closeSink(); cerr != nil {
		errs = append(errs, cerr)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out.packets, out.results = parts[0].packets, parts[0].results
	for _, p := range parts {
		out.ledger.add(p.ledger)
		if t := p.ledger.total(); t > out.critical {
			out.critical = t
		}
		out.tracers = append(out.tracers, p.tracers...)
		out.probes += p.probes
		out.hostsCreated += p.hostsCreated
		out.hostRetx += p.hostRetx
		out.engines = append(out.engines, p.engines...)
		out.cursors = append(out.cursors, p.cursors...)
		if p.reorderMax > out.reorderMax {
			out.reorderMax = p.reorderMax
		}
	}
	if merged != nil {
		out.mergeMax = merged.MaxPending()
	}
	return out, nil
}

// tracedFactory wraps the universe's host factory: CreateHost gets a
// span, and every host it creates is handed to netsim behind a node
// whose HandlePacket gets one too.
type tracedFactory struct {
	u     *inet.Universe
	tr    *tracer
	hosts []*tcpstack.Host
	// packets and results keep copies of the first deliveries to hosts
	// and the first target results: real workload inputs for the layer
	// drivers to replay.
	packets [][]byte
	results []core.TargetResult
}

const (
	keepPackets = 4096
	keepResults = 1024
)

func (f *tracedFactory) CreateHost(n *netsim.Network, addr wire.Addr) netsim.Node {
	id := f.tr.begin(layerCreateHost, uint32(addr))
	node := f.u.CreateHost(n, addr)
	f.tr.end(id)
	if node == nil {
		return nil
	}
	if h, ok := node.(*tcpstack.Host); ok {
		f.hosts = append(f.hosts, h)
	}
	return &tracedNode{inner: node, f: f, layer: layerHostPacket}
}

// tracedNode spans one node's HandlePacket. The span's target is the
// far end's address for the scanner (the packet's source) and the
// node's own for a host (the packet's destination).
type tracedNode struct {
	inner netsim.Node
	f     *tracedFactory
	layer layer
}

func (t *tracedNode) HandlePacket(pkt []byte) {
	off := 16 // IPv4 destination address
	if t.layer == layerCoreHandle {
		off = 12 // source address
	} else if len(t.f.packets) < keepPackets {
		t.f.packets = append(t.f.packets, append([]byte(nil), pkt...))
	}
	id := t.f.tr.begin(t.layer, binary.BigEndian.Uint32(pkt[off:off+4]))
	t.inner.HandlePacket(pkt)
	t.f.tr.end(id)
}

// tracedSink spans WriteRecord on the way out of the reorder buffer.
type tracedSink struct {
	output.Sink
	tr *tracer
}

func (s *tracedSink) WriteRecord(r *analysis.Record) error {
	id := s.tr.begin(layerSink, uint32(r.Addr))
	err := s.Sink.WriteRecord(r)
	s.tr.end(id)
	return err
}

// enrich attaches AS and rDNS metadata to a target result, as the
// unexported experiments.enrich does.
func enrich(u *inet.Universe, tr *core.TargetResult) analysis.Record {
	r := analysis.FromTarget(tr)
	if as := u.ASOf(tr.Addr); as != nil {
		r.ASN = as.ASN
		r.ASName = as.Name
	}
	r.RDNS = u.ReverseDNS(tr.Addr)
	return r
}

// composeShard is one simulator's worth of runComposed. tr nil means
// untraced: no wrapper is installed and the composition is plain.
func composeShard(u *inet.Universe, cfg experiments.ScanConfig, sink output.Sink, tr *tracer) (*composed, error) {
	var root int32
	if tr != nil {
		root = tr.begin(layerScan, 0)
	}
	n := netsim.New(cfg.Seed)
	if cfg.Path != nil {
		n.SetPath(*cfg.Path)
	} else {
		n.SetPath(netsim.PathParams{Delay: 10 * netsim.Millisecond, Jitter: 2 * netsim.Millisecond, Loss: cfg.Loss})
	}
	var factory *tracedFactory
	if tr != nil {
		factory = &tracedFactory{u: u, tr: tr}
		n.SetFactory(factory)
	} else {
		n.SetFactory(u)
	}
	for _, mk := range cfg.FilterFactories {
		n.AddFilter(mk())
	}
	sc := core.NewScanner(n, experiments.ScannerAddr, core.Config{Seed: cfg.Seed})
	if tr != nil {
		// NewScanner registered itself; put the spanning node in its place.
		n.Register(experiments.ScannerAddr, &tracedNode{inner: sc, f: factory, layer: layerCoreHandle})
		sink = &tracedSink{Sink: sink, tr: tr}
	}

	space := scanner.NewSpaceFromPrefixes(u.Prefixes())
	engCfg := scanner.Config{
		Rate: cfg.Rate, MaxOutstanding: cfg.MaxOutstanding, Seed: cfg.Seed,
		SampleFraction: cfg.SampleFraction, Shard: cfg.Shard, Shards: cfg.Shards,
		MaxRetries: cfg.MaxRetries, Smart: cfg.Smart,
	}
	// RunScanChecked's defaults.
	if engCfg.Rate == 0 {
		engCfg.Rate = 10000
	}
	if engCfg.MaxOutstanding == 0 {
		engCfg.MaxOutstanding = 20000
	}
	if engCfg.Shards == 0 {
		engCfg.Shards = 1
	}
	reorder := output.NewReorderAt(sink, 0)
	var sinkErr error
	tc := core.TargetConfig{
		Strategy: cfg.Strategy, MSSList: cfg.MSSList, Repeats: cfg.Repeats,
		NoRedirectFollow: cfg.NoRedirectFollow, NoBloat: cfg.NoBloat,
	}
	var eng *scanner.Engine
	launch := func(addr wire.Addr, done func()) {
		seq, pos := eng.LaunchCursor()
		finish := func(res *core.TargetResult) {
			if res.Outcome == core.OutcomeUnreachable && eng.Fail(seq) {
				return
			}
			var id int32
			if tr != nil {
				if len(factory.results) < keepResults {
					factory.results = append(factory.results, *res)
				}
				id = tr.begin(layerEnrich, uint32(addr))
			}
			rec := enrich(u, res)
			rec.Seq = pos
			if tr != nil {
				tr.end(id)
				id = tr.begin(layerReorder, uint32(addr))
			}
			if err := reorder.Add(seq, &rec); err != nil && sinkErr == nil {
				sinkErr = err
			}
			if tr != nil {
				tr.end(id)
			}
			done()
		}
		if tr == nil {
			sc.ProbeTarget(addr, tc, finish)
			return
		}
		id := tr.begin(layerProbeTarget, uint32(addr))
		sc.ProbeTarget(addr, tc, finish)
		tr.end(id)
	}
	eng = scanner.NewEngine(n, space, engCfg, launch)
	eng.Start()
	if tr != nil {
		id := tr.begin(layerRun, 0)
		n.RunUntilIdle()
		tr.end(id)
	} else {
		n.RunUntilIdle()
	}
	if err := sink.Flush(); err != nil && sinkErr == nil {
		sinkErr = err
	}
	out := &composed{
		probes: sc.Stats().ProbesStarted, engines: []scanner.Stats{eng.Stats()},
		cursors: []scanner.Cursor{eng.Cursor()}, reorderMax: reorder.MaxPending(),
	}
	if tr != nil {
		tr.end(root)
		out.ledger = selfTimes(tr.spans)
		out.tracers = []*tracer{tr}
		out.hostsCreated = int64(len(factory.hosts))
		for _, h := range factory.hosts {
			out.hostRetx += h.Stats().Retransmits
		}
		out.packets, out.results = factory.packets, factory.results
	}
	return out, sinkErr
}

// digestOf is the hex sha256 the byte-identity gates compare.
func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
