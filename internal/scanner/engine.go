package scanner

import (
	"iwscan/internal/metrics"
	"iwscan/internal/netsim"
	"iwscan/internal/wire"
)

// LaunchFunc starts one probe against addr and must eventually invoke
// done exactly once (or report a failed attempt via Engine.Fail, which
// may re-launch the probe instead). The engine uses done for
// concurrency accounting; probe results flow to the caller through its
// own closure. If the caller needs the probe's sequence number (for
// ordered streaming or retries) it must read Engine.LaunchCursor
// synchronously at the top of the launch callback, before any probe
// I/O or done invocation.
type LaunchFunc func(addr wire.Addr, done func())

// Config tunes the engine.
type Config struct {
	// Rate is the probe launch rate in probes per second of virtual
	// time. The paper scans at 150k packets/s; with ~10 packets per IW
	// probe that corresponds to roughly 15k probes/s.
	Rate float64
	// MaxOutstanding bounds concurrently active probes (ZMap's state
	// table size for our stateful module). Default 10000.
	MaxOutstanding int
	// Seed determines the permutation (scan order) and sampling.
	Seed uint64
	// SampleFraction probes only a deterministic random subset of the
	// space (1.0 = everything).
	SampleFraction float64
	// Shard/Shards split the scan ZMap-style across instances. Shards=0
	// means no sharding (equivalent to 1 shard).
	Shard, Shards uint64
	// MaxRetries re-launches a probe whose attempt was reported failed
	// via Engine.Fail, up to this many extra attempts. 0 disables
	// retries (Fail always reports the failure as final).
	MaxRetries int
	// Smart, when non-nil, switches the engine to topology-aware
	// iteration: the permutation is walked twice (hot prefixes first,
	// then the rest) and addresses the plan prunes are skipped, counted
	// in Stats.Pruned. The plan must be immutable; its fingerprint is
	// part of the scan identity, so callers include it in checkpoint
	// fingerprints.
	Smart SmartPlan
	// Resume, when non-nil, starts the engine from a checkpointed
	// cursor instead of the beginning of the permutation. The cursor
	// must come from an engine with the same space size, Seed,
	// SampleFraction, Shard/Shards and Smart plan; callers enforce that
	// with a config fingerprint.
	Resume *Cursor
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Rate == 0 {
		out.Rate = 10000
	}
	if out.MaxOutstanding == 0 {
		out.MaxOutstanding = 10000
	}
	if out.SampleFraction == 0 {
		out.SampleFraction = 1
	}
	if out.Shards == 0 {
		out.Shards = 1
	}
	return out
}

// Stats summarize an engine run.
type Stats struct {
	Launched    int64
	Completed   int64
	Skipped     int64 // blacklisted or outside the sample
	Pruned      int64 // skipped by the smart plan (within the sample)
	Retries     int64 // extra launch attempts after failed ones
	StartedAt   netsim.Time
	FinishedAt  netsim.Time
	MaxInFlight int
}

// Duration returns the virtual-time span of the scan.
func (s Stats) Duration() netsim.Time { return s.FinishedAt - s.StartedAt }

// Cursor is a consistent resume point: Seq is the frontier (every probe
// sequence below it has completed; none at or above it is reflected in
// checkpointed output) and Shard is the permutation state that will
// produce sequence Seq next. Re-starting an engine from a Cursor
// re-probes exactly the targets whose results had not yet been emitted.
type Cursor struct {
	Seq   uint64     `json:"seq"`
	Shard ShardState `json:"shard"`
}

// probeState tracks one launched-but-not-finished probe.
type probeState struct {
	addr      wire.Addr
	pre       ShardState // iterator state that (re)produces this seq
	pos       uint64     // global cycle position of the index
	attempts  int        // launches so far (1 = first attempt)
	completed bool
}

// iterator is the engine's permutation source: a plain Shard, or a
// SmartShard when a plan re-orders the walk. Both expose the same
// resumable cursor.
type iterator interface {
	Next() (uint64, bool)
	LastPos() uint64
	State() ShardState
	SetState(ShardState)
}

// Engine drives probes over a target space at a fixed rate with bounded
// concurrency, in virtual time.
type Engine struct {
	net      *netsim.Network
	space    *TargetSpace
	cfg      Config
	launch   LaunchFunc
	iter     iterator
	sampler  *Sampler
	interval netsim.Time

	outstanding int
	exhausted   bool
	tick        netsim.Timer // the pump's next rate-limited wake-up
	nextSend    netsim.Time
	stats       Stats
	onDone      func(Stats)

	// Frontier bookkeeping for checkpointing and ordered emission.
	nextSeq  uint64                 // seq assigned to the next fresh launch
	frontier uint64                 // smallest seq not yet completed
	pending  map[uint64]*probeState // launched, not yet past the frontier
	retryq   []uint64               // seqs awaiting re-launch
	curSeq   uint64                 // seq of the probe currently in launch()
	curPos   uint64                 // its global cycle position

	mLaunched  *metrics.Counter
	mCompleted *metrics.Counter
	mSkipped   *metrics.Counter
	mPruned    *metrics.Counter
	mRetries   *metrics.Counter
	mInFlight  *metrics.Gauge
	mProbeDur  *metrics.Histogram // launch → done, virtual ns
}

// NewEngine builds an engine over space. Call Start to begin; the caller
// is responsible for running the network.
func NewEngine(n *netsim.Network, space *TargetSpace, cfg Config, launch LaunchFunc) *Engine {
	cfg = cfg.withDefaults()
	var iter iterator = NewShard(space.Size(), cfg.Seed, cfg.Shard%cfg.Shards, cfg.Shards)
	if cfg.Smart != nil {
		iter = NewSmartShard(space, cfg.Seed, cfg.Shard%cfg.Shards, cfg.Shards, cfg.Smart)
	}
	e := &Engine{
		net:      n,
		space:    space,
		cfg:      cfg,
		launch:   launch,
		iter:     iter,
		sampler:  NewSampler(cfg.Seed, cfg.SampleFraction),
		interval: netsim.Time(float64(netsim.Second) / cfg.Rate),
		pending:  make(map[uint64]*probeState),

		mLaunched:  n.Metrics().Counter("engine.launched"),
		mCompleted: n.Metrics().Counter("engine.completed"),
		mSkipped:   n.Metrics().Counter("engine.skipped"),
		mPruned:    n.Metrics().Counter("engine.pruned"),
		mRetries:   n.Metrics().Counter("engine.retries"),
		mInFlight:  n.Metrics().Gauge("engine.in_flight"),
		mProbeDur:  n.Metrics().Histogram("engine.probe_duration_ns"),
	}
	if e.interval <= 0 {
		e.interval = 1
	}
	e.tick.Bind(n, func(a any) { a.(*Engine).pump() }, e)
	if cfg.Resume != nil {
		e.iter.SetState(cfg.Resume.Shard)
		e.nextSeq = cfg.Resume.Seq
		e.frontier = cfg.Resume.Seq
	}
	return e
}

// TargetEstimate returns the expected number of launches for this
// engine: the shard's slice of the space, net of the blacklist and —
// under a smart plan — of the pruned prefixes, scaled by the sample
// fraction. Pruned prefixes are subtracted with the same nested-CIDR
// dedup as the blacklist (and deduped against it: an address both
// blacklisted and pruned is excluded once), otherwise a smart scan's
// %-done figure would never reach 100%. It is an estimate (sampling is
// per-index pseudorandom), used for progress reports.
func (e *Engine) TargetEstimate() int64 {
	excluded := e.space.BlacklistedCount()
	if e.cfg.Smart != nil {
		excluded = e.space.ExcludedCount(e.cfg.Smart.PrunedPrefixes())
	}
	scannable := e.space.Size() - excluded
	est := float64(scannable) / float64(e.cfg.Shards) * e.cfg.SampleFraction
	return int64(est + 0.5)
}

// OnFinish registers a callback invoked once when the scan completes
// (iterator exhausted, retry queue drained, and all probes done).
func (e *Engine) OnFinish(fn func(Stats)) { e.onDone = fn }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// LaunchCursor identifies the probe currently being launched: its dense
// per-shard sequence number (0, 1, 2, ... in launch order, the key for
// ordered emission and Fail) and its global cycle position (the total
// order across shards of one logical scan). It is only valid when read
// synchronously inside the launch callback, before the probe completes.
func (e *Engine) LaunchCursor() (seq, pos uint64) { return e.curSeq, e.curPos }

// Cursor returns a consistent resume point: every seq below Cursor.Seq
// has completed, and restarting from Cursor re-launches everything at
// or above it (including probes currently in flight or queued for
// retry).
func (e *Engine) Cursor() Cursor {
	if ps, ok := e.pending[e.frontier]; ok {
		return Cursor{Seq: e.frontier, Shard: ps.pre}
	}
	return Cursor{Seq: e.frontier, Shard: e.iter.State()}
}

// FrontierLag returns how many launched probe sequences sit at or above
// the completion frontier — the launch-vs-complete lag that bounds both
// the pending map and the reorder buffer a streaming sink needs. Only
// meaningful when read on the simulation goroutine.
func (e *Engine) FrontierLag() int64 { return int64(e.nextSeq - e.frontier) }

// RetryQueueLen returns the number of probes currently queued for
// re-launch. Only meaningful when read on the simulation goroutine.
func (e *Engine) RetryQueueLen() int { return len(e.retryq) }

// Outstanding returns the number of launched-but-unfinished probes.
// Only meaningful when read on the simulation goroutine.
func (e *Engine) Outstanding() int { return e.outstanding }

// Fail reports that the current attempt of probe seq failed (e.g. the
// handshake timed out). It returns true when the engine will re-launch
// the probe — the caller must then discard the attempt's result and not
// call done. It returns false when retries are disabled or exhausted;
// the caller then treats the result as final, exactly as if Fail had
// not been called.
func (e *Engine) Fail(seq uint64) bool {
	ps, ok := e.pending[seq]
	if !ok || ps.attempts > e.cfg.MaxRetries {
		return false
	}
	e.retryq = append(e.retryq, seq)
	e.stats.Retries++
	e.mRetries.Inc()
	e.pump()
	return true
}

// Start begins launching probes.
func (e *Engine) Start() {
	e.stats.StartedAt = e.net.Now()
	e.nextSend = e.net.Now()
	e.pump()
}

// pump launches probes until the rate limiter or the concurrency bound
// stops it, then schedules itself again.
func (e *Engine) pump() {
	for e.nextSend <= e.net.Now() && e.launchOne() {
	}
	e.maybeFinish()
	if e.tick.Pending() || !e.moreToLaunch() {
		return
	}
	e.tick.ArmAt(e.nextSend)
}

// moreToLaunch reports whether pump has anything left to do right now:
// queued retries always qualify; fresh launches only below the
// concurrency bound.
func (e *Engine) moreToLaunch() bool {
	if len(e.retryq) > 0 {
		return true
	}
	return !e.exhausted && e.outstanding < e.cfg.MaxOutstanding
}

// launchOne performs a single (re-)launch, preferring queued retries.
// It returns false when nothing can be launched at the moment.
func (e *Engine) launchOne() bool {
	if len(e.retryq) > 0 {
		seq := e.retryq[0]
		e.retryq = e.retryq[1:]
		ps := e.pending[seq]
		ps.attempts++
		e.nextSend += e.interval
		e.fire(seq, ps)
		return true
	}
	if e.exhausted || e.outstanding >= e.cfg.MaxOutstanding {
		return false
	}
	pre := e.iter.State()
	idx, ok := e.nextIndex()
	if !ok {
		e.exhausted = true
		return false
	}
	seq := e.nextSeq
	e.nextSeq++
	ps := &probeState{addr: e.space.At(idx), pre: pre, pos: e.iter.LastPos(), attempts: 1}
	e.pending[seq] = ps
	e.nextSend += e.interval
	e.outstanding++
	e.stats.Launched++
	e.mLaunched.Inc()
	e.mInFlight.Add(1)
	if e.outstanding > e.stats.MaxInFlight {
		e.stats.MaxInFlight = e.outstanding
	}
	e.fire(seq, ps)
	return true
}

// fire invokes the launch callback for one attempt of probe seq.
func (e *Engine) fire(seq uint64, ps *probeState) {
	e.curSeq, e.curPos = seq, ps.pos
	launchedAt := e.net.Now()
	e.launch(ps.addr, func() { e.probeDone(seq, launchedAt) })
}

// nextIndex advances the iterator past unsampled, blacklisted and
// (under a smart plan) pruned entries. The sampler runs first so
// Pruned counts only sampled addresses, matching TargetEstimate's
// arithmetic (pruned space is subtracted before the sample fraction is
// applied).
func (e *Engine) nextIndex() (uint64, bool) {
	for {
		idx, ok := e.iter.Next()
		if !ok {
			return 0, false
		}
		if !e.sampler.Keep(idx) {
			e.stats.Skipped++
			e.mSkipped.Inc()
			continue
		}
		addr := e.space.At(idx)
		if e.space.Blacklisted(addr) {
			e.stats.Skipped++
			e.mSkipped.Inc()
			continue
		}
		if e.cfg.Smart != nil && e.cfg.Smart.Decide(addr) == SmartPruned {
			e.stats.Pruned++
			e.mPruned.Inc()
			continue
		}
		return idx, true
	}
}

func (e *Engine) probeDone(seq uint64, launchedAt netsim.Time) {
	e.outstanding--
	e.stats.Completed++
	e.mCompleted.Inc()
	e.mInFlight.Add(-1)
	e.mProbeDur.Observe(int64(e.net.Now() - launchedAt))
	if ps, ok := e.pending[seq]; ok {
		ps.completed = true
		for {
			fp, ok := e.pending[e.frontier]
			if !ok || !fp.completed {
				break
			}
			delete(e.pending, e.frontier)
			e.frontier++
		}
	}
	e.pump()
}

func (e *Engine) maybeFinish() {
	if e.exhausted && e.outstanding == 0 && len(e.retryq) == 0 && e.onDone != nil {
		e.stats.FinishedAt = e.net.Now()
		fn := e.onDone
		e.onDone = nil
		fn(e.stats)
	}
}
