package timeseries

import (
	"runtime"
	"time"

	"iwscan/internal/metrics"
	"iwscan/internal/netsim"
)

// Probe injects extra instantaneous gauges into each sample; set
// records one named value. Probes run synchronously on the simulation
// goroutine at sample time, so they may read single-threaded engine or
// network state (frontier lag, event-queue depth) without locking —
// and, like everything else in the sampler, they must not draw
// randomness or mutate simulation state.
type Probe func(set func(name string, v int64))

// Sampler snapshots one simulation's metrics registry into the store on
// a fixed virtual-time cadence. It rides the simulation as a recurring
// timer (exactly like the status reporter and the checkpointer), so it
// must be stopped when the scan finishes or RunUntilIdle would never
// drain the event queue.
type Sampler struct {
	store    *Store
	n        *netsim.Network
	reg      *metrics.Registry
	shard    int
	interval netsim.Time

	index uint64
	epoch netsim.Time // virtual start of the current interval

	prevCounters map[string]int64
	prevWall     time.Time
	prevGC       uint32
	prevPauseNS  uint64

	probes  []Probe
	timer   netsim.Timer
	stopped bool
	mem     runtime.MemStats
}

// Attach arms a sampler for shard on n's registry, sampling every
// store-configured interval of virtual time into store. Call Stop when
// the scan completes; Stop emits one final partial-interval sample so
// short scans still produce a timeline.
func Attach(n *netsim.Network, store *Store, shard int) *Sampler {
	s := &Sampler{
		store:        store,
		n:            n,
		reg:          n.Metrics(),
		shard:        shard,
		interval:     store.Config().Interval,
		epoch:        n.Now(),
		prevCounters: n.Metrics().Snapshot().Counters,
		prevWall:     time.Now(),
	}
	runtime.ReadMemStats(&s.mem)
	s.prevGC = s.mem.NumGC
	s.prevPauseNS = s.mem.PauseTotalNs
	s.timer.Bind(n, func(a any) { a.(*Sampler).tick() }, s)
	s.timer.Arm(s.interval)
	return s
}

// AddProbe registers an extra gauge source evaluated at each sample.
func (s *Sampler) AddProbe(p Probe) { s.probes = append(s.probes, p) }

func (s *Sampler) tick() {
	s.sample(false)
	s.timer.Arm(s.interval)
}

// Stop cancels the recurring timer and emits the closing partial
// sample. Safe to call more than once.
func (s *Sampler) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	s.timer.Cancel()
	s.sample(true)
}

func (s *Sampler) sample(final bool) {
	now := s.n.Now()
	wall := time.Now()
	snap := s.reg.Snapshot()

	counters := make(map[string]int64, len(snap.Counters))
	for name, v := range snap.Counters {
		if d := v - s.prevCounters[name]; d != 0 {
			counters[name] = d
		}
	}
	s.prevCounters = snap.Counters

	gauges := make(map[string]int64, len(snap.Gauges)+8)
	for name, g := range snap.Gauges {
		gauges[name] = g.Value
	}

	// Heap and GC stats: an interval whose wall time balloons while
	// gc_count deltas rise is losing its time to collection, not to
	// simulation work.
	runtime.ReadMemStats(&s.mem)
	gauges["runtime.heap_alloc"] = int64(s.mem.HeapAlloc)
	gauges["runtime.heap_objects"] = int64(s.mem.HeapObjects)
	gauges["runtime.goroutines"] = int64(runtime.NumGoroutine())
	if d := int64(s.mem.NumGC - s.prevGC); d > 0 {
		counters["runtime.gc_count"] = d
	}
	s.prevGC = s.mem.NumGC
	if d := int64(s.mem.PauseTotalNs - s.prevPauseNS); d > 0 {
		counters["runtime.gc_pause_ns"] = d
	}
	s.prevPauseNS = s.mem.PauseTotalNs

	// Packet-pool hit/miss (netsim.packets_pooled / netsim.pool_miss)
	// need no special handling here: the pool is per-network since the
	// multi-core engine split, so each shard's counters arrive through
	// the registry snapshot above like every other series, and the
	// merged view sums them without double counting.

	gauges["netsim.event_queue"] = int64(s.n.QueueLen())
	set := func(name string, v int64) { gauges[name] = v }
	for _, p := range s.probes {
		p(set)
	}

	smp := Sample{
		Shard:    s.shard,
		Index:    s.index,
		StartNS:  int64(s.epoch),
		EndNS:    int64(now),
		WallNS:   wall.Sub(s.prevWall).Nanoseconds(),
		Final:    final,
		Counters: counters,
		Gauges:   gauges,
	}
	s.index++
	s.epoch = now
	s.prevWall = wall
	s.store.Append(smp)
}
