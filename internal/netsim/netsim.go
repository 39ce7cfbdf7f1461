// Package netsim implements a deterministic discrete-event packet
// network. It carries binary IPv4 datagrams between nodes (the scanner
// and simulated hosts), applying per-path delay, jitter, loss,
// reordering, duplication and MTU limits, much like a chain of NetEM
// qdiscs would on a physical testbed.
//
// The simulation is single-threaded and driven by a virtual clock, which
// makes Internet-scale scans reproducible and fast: a "7.5 hour" scan
// runs in seconds of real time.
package netsim

import (
	"container/heap"
	"fmt"

	"iwscan/internal/metrics"
	"iwscan/internal/stats"
	"iwscan/internal/wire"
)

// Time is virtual time in nanoseconds since the start of the simulation.
type Time int64

// Common durations in virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Hour             = 3600 * Second
)

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time in seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Node consumes raw IPv4 packets addressed to it.
type Node interface {
	// HandlePacket is called when a packet is delivered to the node.
	// pkt is a complete IPv4 datagram; the callee must not retain it.
	HandlePacket(pkt []byte)
}

// HostFactory lazily instantiates nodes for destination addresses that
// have no registered node yet. Returning nil means the address is
// unroutable and the packet is silently dropped (as on the real
// Internet, where most of the IPv4 space does not answer).
type HostFactory interface {
	CreateHost(n *Network, addr wire.Addr) Node
}

// PathParams describe the network path between two addresses.
type PathParams struct {
	Delay     Time    // one-way propagation delay
	Jitter    Time    // uniform jitter in [0, Jitter)
	Loss      float64 // independent per-packet loss probability
	Duplicate float64 // per-packet duplication probability
	Reorder   float64 // probability a packet jumps the queue (delivered with Delay/4)
	MTU       int     // maximum IP packet size; 0 = unlimited

	// Rate models a bottleneck link in bits per second (0 = infinite).
	// Packets serialize one after another; a burst larger than the queue
	// overflows and tail-drops — the failure mode that motivates keeping
	// initial windows small on low-capacity links.
	Rate int64
	// QueueBytes bounds the bottleneck queue (default 32 kB when Rate is
	// set).
	QueueBytes int
}

// Verdict is the result of a packet filter.
type Verdict int

// Filter verdicts.
const (
	VerdictPass Verdict = iota
	VerdictDrop
)

// Filter inspects packets before path impairments are applied. Tests use
// filters to inject deterministic loss (e.g., tail loss of a specific
// segment).
type Filter func(now Time, pkt []byte) Verdict

// Counters aggregate network-level statistics.
type Counters struct {
	PacketsSent       int64
	PacketsDelivered  int64
	PacketsDuplicated int64 // extra copies injected by path duplication
	PacketsReordered  int64 // deliveries that jumped the queue (Delay/4)
	PacketsLost       int64
	PacketsFiltered   int64
	PacketsNoRoute    int64
	PacketsMTUDrop    int64
	PacketsQueueDrop  int64 // tail drops at bottleneck links
	BytesSent         int64
	BytesDelivered    int64
}

// netMetrics caches the registry handles for the packet hot path so
// Send/dispatch never pay a map lookup.
type netMetrics struct {
	packetsSent       *metrics.Counter
	packetsDelivered  *metrics.Counter
	packetsDuplicated *metrics.Counter
	packetsReordered  *metrics.Counter
	packetsLost       *metrics.Counter
	packetsFiltered   *metrics.Counter
	packetsNoRoute    *metrics.Counter
	packetsMTUDrop    *metrics.Counter
	packetsQueueDrop  *metrics.Counter
	bytesSent         *metrics.Counter
	bytesDelivered    *metrics.Counter
	pathDelay         *metrics.Histogram // actual per-delivery delay (propagation+jitter+serialization)
	eventsDispatched  *metrics.Counter
	drainBatch        *metrics.Histogram // events dispatched per same-timestamp drain round
	packetsPooled     *metrics.Counter   // GetPacket calls served from the free list
	poolMiss          *metrics.Counter   // GetPacket calls that allocated a fresh buffer
}

func newNetMetrics(reg *metrics.Registry) netMetrics {
	return netMetrics{
		packetsSent:       reg.Counter("netsim.packets_sent"),
		packetsDelivered:  reg.Counter("netsim.packets_delivered"),
		packetsDuplicated: reg.Counter("netsim.packets_duplicated"),
		packetsReordered:  reg.Counter("netsim.packets_reordered"),
		packetsLost:       reg.Counter("netsim.packets_lost"),
		packetsFiltered:   reg.Counter("netsim.packets_filtered"),
		packetsNoRoute:    reg.Counter("netsim.packets_noroute"),
		packetsMTUDrop:    reg.Counter("netsim.packets_mtu_drop"),
		packetsQueueDrop:  reg.Counter("netsim.packets_queue_drop"),
		bytesSent:         reg.Counter("netsim.bytes_sent"),
		bytesDelivered:    reg.Counter("netsim.bytes_delivered"),
		pathDelay:         reg.Histogram("netsim.path_delay_ns"),
		eventsDispatched:  reg.Counter("netsim.events_dispatched"),
		drainBatch:        reg.Histogram("netsim.drain_batch"),
		packetsPooled:     reg.Counter("netsim.packets_pooled"),
		poolMiss:          reg.Counter("netsim.pool_miss"),
	}
}

// Network is the simulated packet network.
type Network struct {
	now     Time
	seq     uint64
	queue   eventHeap
	nodes   map[wire.Addr]Node
	factory HostFactory
	path    func(src, dst wire.Addr) PathParams
	filters []Filter
	links   map[linkKey]*linkState
	rng     *stats.RNG
	stats   Counters
	reg     *metrics.Registry
	nm      netMetrics
	obs     Observer

	// evFree and pktFree recycle event structs and packet buffers (the
	// network is single-threaded, so plain free lists beat a sync.Pool —
	// and, unlike a process-wide pool, they share nothing with other
	// shards' simulations); batch is the reusable scratch for the
	// ready-event drain in Run/RunUntilIdle.
	evFree  []*event
	pktFree []*Packet
	batch   []*event
}

// linkKey identifies a directed bottleneck link.
type linkKey struct {
	src, dst wire.Addr
}

// linkState tracks a bottleneck link's virtual queue: busyUntil is the
// instant the link finishes transmitting everything accepted so far.
type linkState struct {
	busyUntil Time
}

// New creates a network with the given RNG seed. The default path has a
// 10 ms one-way delay and no impairments.
func New(seed uint64) *Network {
	reg := metrics.NewRegistry()
	n := &Network{
		nodes: make(map[wire.Addr]Node),
		links: make(map[linkKey]*linkState),
		rng:   stats.NewRNG(seed),
		reg:   reg,
		nm:    newNetMetrics(reg),
	}
	def := PathParams{Delay: 10 * Millisecond}
	n.path = func(src, dst wire.Addr) PathParams { return def }
	return n
}

// Now returns the current virtual time.
func (n *Network) Now() Time { return n.now }

// QueueLen returns the number of events (deliveries and timers)
// currently pending in the event heap. Only meaningful when read on the
// simulation goroutine (e.g. from a timer callback).
func (n *Network) QueueLen() int { return len(n.queue) }

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Counters { return n.stats }

// Metrics returns the network's metrics registry. Every component
// attached to this network (scanner core, engine, hosts) aggregates
// into the same registry, so one snapshot covers the whole simulation.
func (n *Network) Metrics() *metrics.Registry { return n.reg }

// RNG exposes the network's deterministic RNG so co-located components
// (hosts instantiated by a factory) can derive randomness from it.
func (n *Network) RNG() *stats.RNG { return n.rng }

// SetPathFunc installs fn as the source of per-path parameters.
func (n *Network) SetPathFunc(fn func(src, dst wire.Addr) PathParams) {
	n.path = fn
}

// SetPath installs fixed path parameters for all pairs.
func (n *Network) SetPath(p PathParams) {
	n.path = func(src, dst wire.Addr) PathParams { return p }
}

// SetFactory installs the lazy host factory.
func (n *Network) SetFactory(f HostFactory) { n.factory = f }

// AddFilter appends a packet filter. Filters run in order; the first
// VerdictDrop wins.
func (n *Network) AddFilter(f Filter) { n.filters = append(n.filters, f) }

// Register binds addr to node, replacing any previous binding.
func (n *Network) Register(addr wire.Addr, node Node) { n.nodes[addr] = node }

// Unregister removes the node bound to addr, if any. Future packets to
// addr go back through the host factory.
func (n *Network) Unregister(addr wire.Addr) { delete(n.nodes, addr) }

// NodeCount returns the number of currently registered nodes.
func (n *Network) NodeCount() int { return len(n.nodes) }

// Timer is a re-armable scheduled callback, meant to be embedded by
// value in the state it serves (a connection, a probe, a ticker). Bind
// it once; after that ArmAt, Arm and Cancel never allocate. The heap
// entry comes from the network's event free list, and the callback is
// a plain function of an owner pointer, so nothing escapes per arm.
// Cancelling removes the timer from the event heap immediately, so
// heavily re-armed timers (idle tracking, retransmission) do not
// accumulate dead entries. The zero Timer is disarmed: Cancel and
// Pending work on it before Bind.
type Timer struct {
	net *Network
	fn  func(arg any)
	arg any
	ev  *event // non-nil while armed; nil once fired or cancelled
}

// Bind attaches the timer to network n with callback fn(arg). Pass fn
// as a function literal that captures nothing and the owner as arg
// (`t.Bind(n, func(a any) { a.(*Conn).onTimeout() }, c)`): neither
// allocates, where a method value would cost one allocation per bind.
// Bind a disarmed timer only.
func (t *Timer) Bind(n *Network, fn func(arg any), arg any) {
	t.net, t.fn, t.arg = n, fn, arg
}

// ArmAt schedules the timer to fire at absolute virtual time at
// (clamped to now), replacing any pending expiry. Re-arming takes a
// fresh insertion sequence number, exactly as cancelling and arming
// anew would, so the (time, seq) firing order is unchanged; a timer
// still in the heap is moved in place instead of being removed and
// pushed again.
func (t *Timer) ArmAt(at Time) {
	n := t.net
	if at < n.now {
		at = n.now
	}
	if ev := t.ev; ev != nil && ev.idx >= 0 {
		ev.at = at
		ev.seq = n.seq
		n.seq++
		heap.Fix(&n.queue, ev.idx)
		return
	}
	t.Cancel() // detach an entry already popped into the drain batch
	ev := n.newEvent()
	ev.at = at
	ev.timer = t
	t.ev = ev
	n.push(ev)
}

// Arm schedules the timer to fire d after the current virtual time,
// replacing any pending expiry.
func (t *Timer) Arm(d Time) { t.ArmAt(t.net.now + d) }

// Pending reports whether the timer is armed and has not yet fired. It
// is false inside the timer's own callback.
func (t *Timer) Pending() bool { return t.ev != nil }

// Cancel prevents the timer from firing. Cancelling a disarmed timer is
// a no-op.
func (t *Timer) Cancel() {
	ev := t.ev
	if ev == nil {
		return
	}
	t.ev = nil
	ev.timer = nil
	if ev.idx >= 0 {
		heap.Remove(&t.net.queue, ev.idx)
		t.net.freeEvent(ev)
	}
	// idx < 0: the event was already popped into the in-flight drain
	// batch; dispatch will skip it (timer is nil) and recycle it there.
}

// At schedules fn to run at absolute virtual time t (clamped to now).
// It allocates the Timer and is meant for one-off callbacks; state that
// re-arms a timer embeds one and binds it once instead.
func (n *Network) At(t Time, fn func()) *Timer {
	timer := &Timer{}
	timer.Bind(n, callFunc, fn)
	timer.ArmAt(t)
	return timer
}

// After schedules fn to run d after the current time (see At).
func (n *Network) After(d Time, fn func()) *Timer {
	return n.At(n.now+d, fn)
}

// callFunc is the bound callback of At's timers: arg is the func().
func callFunc(arg any) { arg.(func())() }

// Send injects an IPv4 packet into the network. Path impairments are
// applied based on the packet's source and destination addresses. The
// network may hold pkt until delivery, so the caller must not modify it
// afterwards; for the allocation-free path use SendPacket instead.
func (n *Network) Send(pkt []byte) { n.send(pkt, nil) }

// SendPacket injects a pooled packet into the network, taking ownership
// of p: the buffer is recycled as soon as the packet is dropped or
// delivered (see the Packet ownership contract in pool.go). This is the
// zero-allocation send path.
func (n *Network) SendPacket(p *Packet) { n.send(p.B, p) }

// send is the shared implementation: pb is non-nil for pool-owned
// packets and must be recycled on every exit path that ends the
// packet's life.
func (n *Network) send(pkt []byte, pb *Packet) {
	var hdr wire.IPv4Header
	if _, err := wire.DecodeIPv4Into(&hdr, pkt); err != nil {
		// Malformed packets vanish, as a router would drop them.
		n.stats.PacketsLost++
		n.nm.packetsLost.Inc()
		n.observe(OpDropMalformed, pkt)
		n.PutPacket(pb)
		return
	}
	n.stats.PacketsSent++
	n.stats.BytesSent += int64(len(pkt))
	n.nm.packetsSent.Inc()
	n.nm.bytesSent.Add(int64(len(pkt)))
	n.observe(OpSend, pkt)

	for _, f := range n.filters {
		if f(n.now, pkt) == VerdictDrop {
			n.stats.PacketsFiltered++
			n.nm.packetsFiltered.Inc()
			n.observe(OpDropFilter, pkt)
			n.PutPacket(pb)
			return
		}
	}

	p := n.path(hdr.Src, hdr.Dst)
	if p.MTU > 0 && len(pkt) > p.MTU {
		n.stats.PacketsMTUDrop++
		n.nm.packetsMTUDrop.Inc()
		n.observe(OpDropMTU, pkt)
		if hdr.Flags&wire.IPFlagDF != 0 {
			n.sendFragNeeded(hdr, pkt, p.MTU)
		}
		// Without DF a real router would fragment; our endpoints never
		// exceed the MTU except when probing, so dropping is fine.
		n.PutPacket(pb)
		return
	}

	if n.rng.Bool(p.Loss) {
		n.stats.PacketsLost++
		n.nm.packetsLost.Inc()
		n.observe(OpDropLoss, pkt)
		n.PutPacket(pb)
		return
	}

	// Bottleneck link: serialize through the virtual queue; a backlog
	// beyond the queue capacity tail-drops the packet.
	extra := Time(0)
	if p.Rate > 0 {
		key := linkKey{src: hdr.Src, dst: hdr.Dst}
		l := n.links[key]
		if l == nil {
			l = &linkState{}
			n.links[key] = l
		}
		if l.busyUntil < n.now {
			l.busyUntil = n.now
		}
		qcap := p.QueueBytes
		if qcap == 0 {
			qcap = 32 * 1024
		}
		backlogBytes := int64(l.busyUntil-n.now) * p.Rate / (8 * int64(Second))
		if backlogBytes > int64(qcap) {
			n.stats.PacketsQueueDrop++
			n.nm.packetsQueueDrop.Inc()
			n.observe(OpDropQueue, pkt)
			n.PutPacket(pb)
			return
		}
		txTime := Time(int64(len(pkt)) * 8 * int64(Second) / p.Rate)
		l.busyUntil += txTime
		extra = l.busyUntil - n.now
	}

	// The delivery event holds pkt until dispatch, so the buffer is still
	// valid for the duplicate copy below even on the pooled path.
	n.scheduleDelivery(pkt, pb, p, extra)
	if n.rng.Bool(p.Duplicate) {
		n.stats.PacketsDuplicated++
		n.nm.packetsDuplicated.Inc()
		n.observe(OpDuplicate, pkt)
		dup := n.GetPacket()
		dup.B = append(dup.B, pkt...)
		n.scheduleDelivery(dup.B, dup, p, extra)
	}
}

// sendFragNeeded emits the RFC 1191 ICMP "fragmentation needed" message
// for an oversized DF packet.
func (n *Network) sendFragNeeded(orig wire.IPv4Header, pkt []byte, mtu int) {
	// Body: original IP header + first 8 bytes of payload.
	bodyLen := wire.IPv4HeaderLen + 8
	if bodyLen > len(pkt) {
		bodyLen = len(pkt)
	}
	icmp := wire.EncodeICMP(nil, &wire.ICMPHeader{
		Type:       wire.ICMPDestUnreach,
		Code:       wire.ICMPCodeFragNeeded,
		NextHopMTU: uint16(mtu),
		Body:       pkt[:bodyLen],
	})
	rp := n.GetPacket()
	rp.B = wire.EncodeIPv4(rp.B, &wire.IPv4Header{
		Protocol: wire.ProtoICMP,
		Src:      orig.Dst, // nominally the router; the destination stands in
		Dst:      orig.Src,
	}, icmp)
	// The ICMP reply traverses the reverse path without MTU issues.
	n.observe(OpSend, rp.B)
	p := n.path(orig.Dst, orig.Src)
	p.MTU = 0
	n.scheduleDelivery(rp.B, rp, p, 0)
}

// scheduleDelivery queues the packet for delivery after propagation
// delay plus any serialization time already accrued at a bottleneck.
// When pb is non-nil the buffer is pool-owned and recycled at dispatch.
func (n *Network) scheduleDelivery(pkt []byte, pb *Packet, p PathParams, serialization Time) {
	delay := p.Delay + serialization
	if p.Jitter > 0 {
		delay += Time(n.rng.Int63() % int64(p.Jitter))
	}
	if p.Reorder > 0 && n.rng.Bool(p.Reorder) {
		delay = p.Delay / 4
		n.stats.PacketsReordered++
		n.nm.packetsReordered.Inc()
		n.observe(OpReorder, pkt)
	}
	n.nm.pathDelay.Observe(int64(delay))
	ev := n.newEvent()
	ev.at = n.now + delay
	ev.pkt = pkt
	ev.pb = pb
	n.push(ev)
}

// drainBatchMax caps how many ready events one drain round pops before
// dispatching, bounding the reusable batch buffer.
const drainBatchMax = 256

// drainReady pops the run of events sharing the earliest timestamp (up
// to drainBatchMax) and dispatches them in order, amortizing heap
// operations across a delivery burst — a server's whole IW burst lands
// at one instant and drains as one batch. Collecting the full run
// before dispatching preserves exact event ordering: any event pushed
// during dispatch carries a later insertion seq than everything in the
// batch, so at an equal timestamp the heap would order it after the
// batch anyway. The caller must ensure the queue is non-empty.
func (n *Network) drainReady() int {
	t := n.queue[0].at
	batch := n.batch[:0]
	for len(n.queue) > 0 && n.queue[0].at == t && len(batch) < drainBatchMax {
		batch = append(batch, heap.Pop(&n.queue).(*event))
	}
	n.now = t
	for i, ev := range batch {
		n.dispatch(ev)
		n.freeEvent(ev)
		batch[i] = nil
	}
	k := len(batch)
	n.batch = batch[:0]
	n.nm.eventsDispatched.Add(int64(k))
	n.nm.drainBatch.Observe(int64(k))
	return k
}

// Run processes events until the queue is empty or the virtual clock
// would pass deadline. It returns the number of events processed.
func (n *Network) Run(deadline Time) int {
	processed := 0
	for len(n.queue) > 0 && n.queue[0].at <= deadline {
		processed += n.drainReady()
	}
	if n.now < deadline {
		n.now = deadline
	}
	return processed
}

// RunUntilIdle processes events until none remain. It returns the number
// of events processed.
func (n *Network) RunUntilIdle() int {
	processed := 0
	for len(n.queue) > 0 {
		processed += n.drainReady()
	}
	return processed
}

func (n *Network) dispatch(ev *event) {
	if t := ev.timer; t != nil {
		t.ev = nil
		t.fn(t.arg)
		return
	}
	if ev.pkt == nil {
		return // timer cancelled while the event sat in the drain batch
	}
	var hdr wire.IPv4Header
	if _, err := wire.DecodeIPv4Into(&hdr, ev.pkt); err != nil {
		n.stats.PacketsLost++
		n.nm.packetsLost.Inc()
		n.observe(OpDropMalformed, ev.pkt)
		return
	}
	node := n.nodes[hdr.Dst]
	if node == nil && n.factory != nil {
		node = n.factory.CreateHost(n, hdr.Dst)
		if node != nil {
			n.nodes[hdr.Dst] = node
		}
	}
	if node == nil {
		n.stats.PacketsNoRoute++
		n.nm.packetsNoRoute.Inc()
		n.observe(OpDropNoRoute, ev.pkt)
		return
	}
	n.stats.PacketsDelivered++
	n.stats.BytesDelivered += int64(len(ev.pkt))
	n.nm.packetsDelivered.Inc()
	n.nm.bytesDelivered.Add(int64(len(ev.pkt)))
	n.observe(OpDeliver, ev.pkt)
	node.HandlePacket(ev.pkt)
}

// event is either a packet delivery (pkt != nil) or a timer firing.
type event struct {
	at    Time
	seq   uint64 // insertion order, for deterministic tie-breaking
	idx   int    // heap index, maintained by eventHeap.Swap; -1 once popped
	pkt   []byte
	pb    *Packet // non-nil when pkt is pool-owned; recycled after dispatch
	timer *Timer
}

// newEvent returns a zeroed event from the free list (or a fresh one).
func (n *Network) newEvent() *event {
	if k := len(n.evFree) - 1; k >= 0 {
		e := n.evFree[k]
		n.evFree[k] = nil
		n.evFree = n.evFree[:k]
		return e
	}
	return new(event)
}

// freeEvent recycles ev, returning any pool-owned packet buffer first.
func (n *Network) freeEvent(ev *event) {
	n.PutPacket(ev.pb)
	*ev = event{}
	n.evFree = append(n.evFree, ev)
}

func (n *Network) push(e *event) {
	e.seq = n.seq
	n.seq++
	heap.Push(&n.queue, e)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x interface{}) {
	e := x.(*event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	ev.idx = -1 // no longer in the heap (see Timer.Cancel)
	return ev
}
