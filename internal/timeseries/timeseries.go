// Package timeseries turns the scan stack's shard-mergeable metrics
// registries into time-resolved telemetry: a Sampler rides each shard's
// simulation on a fixed virtual-time cadence and snapshots the
// registry into interval deltas; a Store keeps a bounded ring of those
// samples per shard (plus an on-demand merged view) and runs an anomaly
// detector over them as they arrive.
//
// The design constraints mirror the flight recorder's (PR 5): sampling
// must be provably non-perturbing. The sampler draws no randomness,
// never sends packets, and only ever reads state that is already
// maintained for other consumers, so golden scan outputs stay
// byte-identical with telemetry armed. The only simulation-visible
// effect is the timer event the sampler schedules for itself, which —
// like the status reporter's and the checkpointer's timers — changes
// event sequence numbers without changing the relative order of any
// other events.
//
// Three consumers sit on top of the Store:
//
//   - a JSONL stream (-telemetry-out): one line per sample or anomaly,
//     shard-tagged, spliced at the checkpoint so resumed scans extend
//     the same file;
//   - the debug server's /timeseries (JSON document) and /dash
//     (self-contained HTML sparkline dashboard) endpoints;
//   - the -status-interval progress line, which surfaces the anomaly
//     tally while the scan runs.
package timeseries

import (
	"fmt"
	"sync"

	"iwscan/internal/netsim"
)

// Anomaly kinds.
const (
	KindStall      = "stall"       // no completions for k intervals with probes in flight
	KindRetryStorm = "retry-storm" // retries rival fresh launches
	KindDropSpike  = "drop-spike"  // drop fraction above threshold
	KindShardSkew  = "shard-skew"  // per-shard completion rates diverge
)

// Config tunes the sampler cadence, ring bounds and anomaly thresholds.
// The zero value gets sensible defaults from withDefaults.
type Config struct {
	// Interval is the virtual-time sampling cadence (default 100 ms of
	// virtual time — fine enough that even a 1-virtual-second sample
	// scan yields a timeline).
	Interval netsim.Time
	// Ring bounds the samples retained per shard; older samples are
	// evicted (default 1024). Eviction is counted, never silent.
	Ring int
	// MaxAnomalies bounds the retained anomaly list (default 256).
	MaxAnomalies int

	// StallIntervals is how many consecutive zero-completion intervals
	// (with probes in flight) declare a stall (default 3).
	StallIntervals int
	// RetryStormRatio fires when interval retries exceed this fraction
	// of interval launches (default 0.5, minimum 8 retries).
	RetryStormRatio float64
	// DropSpikeRate fires when the interval's dropped fraction of sent
	// packets exceeds it (default 0.10, minimum 64 packets sent).
	DropSpikeRate float64
	// SkewRatio fires when, at one interval index, the fastest shard's
	// completion count is at least this multiple of the slowest's
	// (default 4; needs >= 2 shards and some volume).
	SkewRatio float64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 100 * netsim.Millisecond
	}
	if c.Ring <= 0 {
		c.Ring = 1024
	}
	if c.MaxAnomalies <= 0 {
		c.MaxAnomalies = 256
	}
	if c.StallIntervals <= 0 {
		c.StallIntervals = 3
	}
	if c.RetryStormRatio <= 0 {
		c.RetryStormRatio = 0.5
	}
	if c.DropSpikeRate <= 0 {
		c.DropSpikeRate = 0.10
	}
	if c.SkewRatio <= 0 {
		c.SkewRatio = 4
	}
	return c
}

// Sample is one shard's telemetry for one virtual-time interval.
// Counters hold interval deltas of every registry counter (zero deltas
// are omitted); Gauges hold instantaneous levels at the interval's end,
// including sampler-injected ones (frontier lag, event-queue depth,
// sink queue depth, heap stats). WallNS is the wall-clock time the
// shard consumed during the interval — the one series that differs
// between a serial and a parallel run of the same virtual work, and
// therefore the series that localizes contention.
type Sample struct {
	Shard   int    `json:"shard"`
	Index   uint64 `json:"index"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	WallNS  int64  `json:"wall_ns"`
	// Final marks the closing partial interval emitted at Stop.
	Final    bool             `json:"final,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Gauges   map[string]int64 `json:"gauges,omitempty"`
}

// C returns the named counter delta (0 when absent).
func (s *Sample) C(name string) int64 { return s.Counters[name] }

// G returns the named gauge value (0 when absent).
func (s *Sample) G(name string) int64 { return s.Gauges[name] }

// drops sums every packet-terminating counter of the interval.
func (s *Sample) drops() int64 {
	return s.C("netsim.packets_lost") + s.C("netsim.packets_filtered") +
		s.C("netsim.packets_mtu_drop") + s.C("netsim.packets_queue_drop") +
		s.C("netsim.packets_noroute")
}

// Anomaly is one structured detector finding. Shard is -1 for
// cross-shard findings (skew).
type Anomaly struct {
	Kind   string `json:"kind"`
	Shard  int    `json:"shard"`
	Index  uint64 `json:"index"`
	AtNS   int64  `json:"at_ns"`
	Detail string `json:"detail"`
}

// MergeWait mirrors output.ShardWait for the telemetry document (kept
// as a local type so timeseries does not depend on the output package).
type MergeWait struct {
	Shard     int   `json:"shard"`
	Writes    int64 `json:"writes"`
	MaxQueued int   `json:"max_queued"`
	Stalls    int64 `json:"stalls"`
	BlockedNS int64 `json:"blocked_ns"`
}

// shardRing is one shard's bounded sample history.
type shardRing struct {
	buf     []Sample
	head    int // index of the oldest sample
	n       int // samples currently held
	evicted int64
	total   int64

	// Detector state.
	stallRun   int
	stallFired bool
	stormOn    bool
	spikeOn    bool
}

func (r *shardRing) push(s Sample, ring int) {
	if len(r.buf) < ring {
		r.buf = append(r.buf, s)
		r.n++
		r.total++
		return
	}
	// Full: overwrite the oldest.
	r.buf[r.head] = s
	r.head = (r.head + 1) % len(r.buf)
	r.evicted++
	r.total++
}

func (r *shardRing) samples() []Sample {
	out := make([]Sample, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.buf[(r.head+i)%len(r.buf)])
	}
	return out
}

// at returns the retained sample with the given interval index, if any.
func (r *shardRing) at(index uint64) *Sample {
	for i := r.n - 1; i >= 0; i-- {
		s := &r.buf[(r.head+i)%len(r.buf)]
		if s.Index == index {
			return s
		}
		if s.Index < index {
			return nil
		}
	}
	return nil
}

// Store collects samples from concurrently running shard samplers and
// serves consistent views to concurrent readers (the debug server, the
// status reporter). All methods are safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	cfg    Config
	shards map[int]*shardRing
	order  []int // shard ids in first-seen order

	anomalies     []Anomaly
	anomalyDrop   int64
	anomalyCounts map[string]int64

	mergeWaits []MergeWait

	stream    *jsonlWriter
	skewAbove uint64 // interval indexes <= this were already skew-checked
}

// NewStore creates a store with the given config (zero value = defaults).
func NewStore(cfg Config) *Store {
	return &Store{
		cfg:           cfg.withDefaults(),
		shards:        make(map[int]*shardRing),
		anomalyCounts: make(map[string]int64),
	}
}

// Config returns the effective (defaulted) configuration.
func (st *Store) Config() Config { return st.cfg }

// Append stores one sample, streams it to the JSONL writer when one is
// attached, and runs the anomaly detector. It returns the newly fired
// anomalies (usually none).
func (st *Store) Append(s Sample) []Anomaly {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.shards[s.Shard]
	if r == nil {
		r = &shardRing{}
		st.shards[s.Shard] = r
		st.order = append(st.order, s.Shard)
	}
	r.push(s, st.cfg.Ring)
	if st.stream != nil {
		st.stream.writeSample(&s)
	}
	fired := st.detectLocked(r, &s)
	for i := range fired {
		st.recordAnomalyLocked(fired[i])
	}
	return fired
}

// recordAnomalyLocked appends a (bounded) anomaly and streams it.
func (st *Store) recordAnomalyLocked(a Anomaly) {
	st.anomalyCounts[a.Kind]++
	if len(st.anomalies) >= st.cfg.MaxAnomalies {
		st.anomalyDrop++
	} else {
		st.anomalies = append(st.anomalies, a)
	}
	if st.stream != nil {
		st.stream.writeAnomaly(&a)
	}
}

// detectLocked evaluates the per-shard detectors on the fresh sample
// and the cross-shard skew detector on any interval index that became
// complete. Detectors are edge-triggered: each episode fires once.
func (st *Store) detectLocked(r *shardRing, s *Sample) []Anomaly {
	var fired []Anomaly

	// Stall: probes in flight but nothing completing, k intervals long.
	if s.C("engine.completed") == 0 && s.G("engine.in_flight") > 0 && !s.Final {
		r.stallRun++
		if r.stallRun >= st.cfg.StallIntervals && !r.stallFired {
			r.stallFired = true
			fired = append(fired, Anomaly{
				Kind: KindStall, Shard: s.Shard, Index: s.Index, AtNS: s.EndNS,
				Detail: fmt.Sprintf("no completions for %d intervals with %d probes in flight",
					r.stallRun, s.G("engine.in_flight")),
			})
		}
	} else if s.C("engine.completed") > 0 {
		r.stallRun, r.stallFired = 0, false
	}

	// Retry storm.
	launched, retries := s.C("engine.launched"), s.C("engine.retries")
	if retries >= 8 && float64(retries) > st.cfg.RetryStormRatio*float64(launched) {
		if !r.stormOn {
			r.stormOn = true
			fired = append(fired, Anomaly{
				Kind: KindRetryStorm, Shard: s.Shard, Index: s.Index, AtNS: s.EndNS,
				Detail: fmt.Sprintf("%d retries vs %d fresh launches in one interval", retries, launched),
			})
		}
	} else {
		r.stormOn = false
	}

	// Drop spike.
	if sent := s.C("netsim.packets_sent"); sent >= 64 {
		if frac := float64(s.drops()) / float64(sent); frac > st.cfg.DropSpikeRate {
			if !r.spikeOn {
				r.spikeOn = true
				fired = append(fired, Anomaly{
					Kind: KindDropSpike, Shard: s.Shard, Index: s.Index, AtNS: s.EndNS,
					Detail: fmt.Sprintf("%.1f%% of %d packets dropped in one interval", 100*frac, sent),
				})
			}
		} else {
			r.spikeOn = false
		}
	}

	// Shard skew: once every known shard has delivered interval Index,
	// compare completion counts. Needs at least two shards and volume.
	if len(st.shards) >= 2 && s.Index >= st.skewAbove {
		complete := true
		minC, maxC := int64(-1), int64(-1)
		minS, maxS := -1, -1
		for id, ring := range st.shards {
			smp := ring.at(s.Index)
			if smp == nil {
				complete = false
				break
			}
			c := smp.C("engine.completed")
			if minC < 0 || c < minC {
				minC, minS = c, id
			}
			if c > maxC {
				maxC, maxS = c, id
			}
		}
		if complete {
			st.skewAbove = s.Index + 1
			if maxC >= 32 && float64(maxC) >= st.cfg.SkewRatio*float64(maxInt64(minC, 1)) {
				fired = append(fired, Anomaly{
					Kind: KindShardSkew, Shard: -1, Index: s.Index, AtNS: s.EndNS,
					Detail: fmt.Sprintf("shard %d completed %d vs shard %d's %d in interval %d",
						maxS, maxC, minS, minC, s.Index),
				})
			}
		}
	}
	return fired
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// SetMergeWaits records the k-way merge's per-shard wait accounting
// (converted from output.ShardWait by the caller).
func (st *Store) SetMergeWaits(w []MergeWait) {
	st.mu.Lock()
	st.mergeWaits = append([]MergeWait(nil), w...)
	st.mu.Unlock()
}

// Shards returns the shard ids with samples, in first-seen order.
func (st *Store) Shards() []int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]int(nil), st.order...)
}

// Series returns a copy of one shard's retained samples in interval
// order, plus how many older samples were evicted from its ring.
func (st *Store) Series(shard int) (samples []Sample, evicted int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	r := st.shards[shard]
	if r == nil {
		return nil, 0
	}
	return r.samples(), r.evicted
}

// TotalSamples returns the number of samples ever appended (including
// evicted ones) across all shards.
func (st *Store) TotalSamples() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	var n int64
	for _, r := range st.shards {
		n += r.total
	}
	return n
}

// Merged returns the cross-shard sum per interval index: counters and
// gauges add (mirroring metrics.Snapshot.Merge), WallNS adds (total
// wall time consumed across shards), and the interval span covers all
// shards' spans. Only indexes retained by at least one shard appear.
func (st *Store) Merged() []Sample {
	st.mu.Lock()
	defer st.mu.Unlock()
	byIndex := make(map[uint64]*Sample)
	var maxIdx uint64
	for _, r := range st.shards {
		for i := 0; i < r.n; i++ {
			s := &r.buf[(r.head+i)%len(r.buf)]
			m := byIndex[s.Index]
			if m == nil {
				m = &Sample{Shard: -1, Index: s.Index, StartNS: s.StartNS, EndNS: s.EndNS,
					Counters: make(map[string]int64), Gauges: make(map[string]int64)}
				byIndex[s.Index] = m
				if s.Index > maxIdx {
					maxIdx = s.Index
				}
			}
			if s.StartNS < m.StartNS {
				m.StartNS = s.StartNS
			}
			if s.EndNS > m.EndNS {
				m.EndNS = s.EndNS
			}
			m.WallNS += s.WallNS
			m.Final = m.Final || s.Final
			for k, v := range s.Counters {
				m.Counters[k] += v
			}
			for k, v := range s.Gauges {
				m.Gauges[k] += v
			}
		}
	}
	out := make([]Sample, 0, len(byIndex))
	for idx := uint64(0); idx <= maxIdx; idx++ {
		if m := byIndex[idx]; m != nil {
			out = append(out, *m)
		}
	}
	return out
}

// Anomalies returns a copy of the retained anomaly list and the count
// dropped past the bound.
func (st *Store) Anomalies() ([]Anomaly, int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]Anomaly(nil), st.anomalies...), st.anomalyDrop
}

// AnomalySummary returns the total fired count, the per-kind tally and
// the most recent anomaly (nil when none) — the status line's view.
func (st *Store) AnomalySummary() (total int64, byKind map[string]int64, last *Anomaly) {
	st.mu.Lock()
	defer st.mu.Unlock()
	byKind = make(map[string]int64, len(st.anomalyCounts))
	for k, v := range st.anomalyCounts {
		byKind[k] = v
		total += v
	}
	if len(st.anomalies) > 0 {
		a := st.anomalies[len(st.anomalies)-1]
		last = &a
	}
	return total, byKind, last
}

// ShardSeries is one shard's series in the /timeseries document.
type ShardSeries struct {
	Shard   int      `json:"shard"`
	Evicted int64    `json:"evicted,omitempty"`
	Samples []Sample `json:"samples"`
}

// Document is the complete JSON view served at /timeseries.
type Document struct {
	IntervalNS       int64         `json:"interval_ns"`
	Ring             int           `json:"ring"`
	Shards           []ShardSeries `json:"shards"`
	Merged           []Sample      `json:"merged,omitempty"`
	Anomalies        []Anomaly     `json:"anomalies"`
	AnomaliesDropped int64         `json:"anomalies_dropped,omitempty"`
	MergeWaits       []MergeWait   `json:"merge_waits,omitempty"`
}

// Document assembles the full store view. The merged series is included
// only for multi-shard stores (for one shard it would duplicate it).
func (st *Store) Document() Document {
	doc := Document{IntervalNS: int64(st.cfg.Interval), Ring: st.cfg.Ring}
	for _, shard := range st.Shards() {
		samples, evicted := st.Series(shard)
		doc.Shards = append(doc.Shards, ShardSeries{Shard: shard, Evicted: evicted, Samples: samples})
	}
	if len(doc.Shards) > 1 {
		doc.Merged = st.Merged()
	}
	doc.Anomalies, doc.AnomaliesDropped = st.Anomalies()
	st.mu.Lock()
	doc.MergeWaits = append([]MergeWait(nil), st.mergeWaits...)
	st.mu.Unlock()
	return doc
}
