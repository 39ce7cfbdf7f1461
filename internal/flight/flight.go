// Package flight implements a per-probe flight recorder: a structured
// event journal that correlates, on one virtual-time line, everything
// the simulation knows about a single probed target — netsim packet
// lifecycle events (send/deliver/drop/reorder/duplicate), the scanner's
// estimator steps (SYN options, segment classifications, the
// receive-window manipulation), the simulated server's own TCP stack
// annotations, probe phase transitions, and the final verdict from the
// validation oracle.
//
// Recording is ring-buffered per in-flight probe with a strict
// allocation budget: event slabs come from a process-wide pool with the
// same linear-ownership discipline as netsim's packet pool. On a normal
// verdict the slab is recycled untouched; an anomaly trigger (a
// configured verdict set, a deterministic sampling rate, or an explicit
// trace-host filter) freezes the timeline into a Record and emits it as
// Chrome trace-event JSON (loadable in Perfetto), a tcpdump-style text
// narrative, and a pcap of the raw packets.
//
// The recorder is also the scan's packet tap: with Config.Pcap set it
// streams every datagram the network accepts into one pcap file (see
// pcap.go for the codec), whether or not any probe is being recorded.
package flight

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"iwscan/internal/metrics"
	"iwscan/internal/netsim"
	"iwscan/internal/wire"
)

// Kind classifies a journal event by its source layer.
type Kind uint8

// Event kinds.
const (
	KindPhase   Kind = iota // probe lifecycle phase transition
	KindPacket              // netsim packet lifecycle op
	KindSegment             // estimator data-segment classification
	KindStep                // estimator step (options seen, window shrunk, ...)
	KindStack               // simulated server TCP stack annotation
	KindVerdict             // final verdict joined from the oracle
)

var kindNames = [...]string{
	KindPhase:   "phase",
	KindPacket:  "packet",
	KindSegment: "segment",
	KindStep:    "step",
	KindStack:   "stack",
	KindVerdict: "verdict",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "kind(?)"
}

// Event is one journal entry. The struct is flat and string-free on the
// hot path: Note is always a static string (phase name, note tag or
// segment class), and event-specific integers ride in A and B, so
// appending an event never allocates.
type Event struct {
	At   netsim.Time
	Kind Kind
	Op   netsim.PacketOp // valid for KindPacket
	Note string          // phase name / note tag / segment class / verdict

	// Packet summary, valid for KindPacket.
	Src, Dst         wire.Addr
	SrcPort, DstPort uint16
	Proto            byte
	Flags            byte
	Seq, Ack         uint32
	Len              uint32 // TCP payload bytes

	// Note-specific integer arguments (KindSegment: offset and length).
	A, B int64
}

// slab is the per-probe recording buffer: a fixed-capacity event ring
// plus a bounded copy of the raw packets. Slabs are pooled; the
// ownership contract mirrors netsim's packet pool — a slab is owned by
// exactly one in-flight probe and returns to the pool when the probe
// ends without freezing.
type slab struct {
	target wire.Addr
	began  netsim.Time

	events    []Event // ring storage, cap fixed at first use
	start     int     // index of the oldest event
	truncated int     // events overwritten after the ring filled

	// pktBuf is a single fixed-capacity backing array; pkts slices point
	// into it. The buffer never grows past its capacity (packets that
	// would overflow are counted in pktSkipped instead), so the interior
	// slices stay valid for the slab's lifetime.
	pktBuf     []byte
	pkts       []Captured
	pktSkipped int
}

func (s *slab) reset(target wire.Addr, at netsim.Time) {
	s.target = target
	s.began = at
	s.events = s.events[:0]
	s.start = 0
	s.truncated = 0
	s.pktBuf = s.pktBuf[:0]
	s.pkts = s.pkts[:0]
	s.pktSkipped = 0
}

// addEvent appends ev, overwriting the oldest entry once the ring is
// full. Never allocates after the ring reaches capacity.
func (s *slab) addEvent(ev Event) {
	if len(s.events) < cap(s.events) {
		s.events = append(s.events, ev)
		return
	}
	s.events[s.start] = ev
	s.start++
	if s.start == len(s.events) {
		s.start = 0
	}
	s.truncated++
}

// addPacket copies data into the slab's packet buffer, or counts it as
// skipped when the buffer is full.
func (s *slab) addPacket(at netsim.Time, data []byte) {
	if len(s.pktBuf)+len(data) > cap(s.pktBuf) || len(s.pkts) == cap(s.pkts) {
		s.pktSkipped++
		return
	}
	off := len(s.pktBuf)
	s.pktBuf = append(s.pktBuf, data...)
	s.pkts = append(s.pkts, Captured{At: at, Data: s.pktBuf[off:len(s.pktBuf):len(s.pktBuf)]})
}

// ordered returns the ring contents oldest-first. The returned slice
// aliases slab storage and is only valid until reset.
func (s *slab) ordered(scratch []Event) []Event {
	if s.start == 0 {
		return s.events
	}
	scratch = scratch[:0]
	scratch = append(scratch, s.events[s.start:]...)
	scratch = append(scratch, s.events[:s.start]...)
	return scratch
}

// slabPool recycles recording slabs across probes (and across
// recorders: like netsim's packet pool it is process-wide, so parallel
// test runs share it — which is exactly what the race tests exercise).
var slabPool = sync.Pool{New: func() interface{} { return new(slab) }}

func getSlab(eventCap, pktBytes, pktCap int) *slab {
	s := slabPool.Get().(*slab)
	if cap(s.events) != eventCap {
		s.events = make([]Event, 0, eventCap)
	}
	if cap(s.pktBuf) != pktBytes {
		s.pktBuf = make([]byte, 0, pktBytes)
	}
	if cap(s.pkts) != pktCap {
		s.pkts = make([]Captured, 0, pktCap)
	}
	return s
}

func putSlab(s *slab) {
	s.reset(0, 0)
	slabPool.Put(s)
}

// Default buffer sizes. 1024 events and 256 KiB of raw packets hold a
// full multi-MSS probe sequence against one target with room to spare.
const (
	DefaultEventCap    = 1024
	DefaultPacketBytes = 256 << 10
	defaultPacketCap   = 512
	DefaultMaxRecords  = 64
)

// Config controls what the recorder captures and when it freezes.
type Config struct {
	// Dir is where frozen records are written (empty = in-memory only).
	Dir string

	// Triggers is the set of verdict names that freeze a record. A name
	// matches the full verdict string or its prefix before ':' (so
	// "error" catches "error:loss-gap"). The special name "all" freezes
	// every probe.
	Triggers map[string]bool

	// TraceHosts freezes every probe of the listed targets regardless
	// of verdict.
	TraceHosts map[wire.Addr]bool

	// SampleRate freezes a deterministic pseudo-random fraction of all
	// probes (0 disables). Selection hashes the target address with
	// Seed, never the simulation RNG, so sampling cannot perturb a
	// golden scan.
	SampleRate float64
	Seed       uint64

	// EventCap and PacketBytes bound each probe's slab (defaults
	// DefaultEventCap / DefaultPacketBytes).
	EventCap    int
	PacketBytes int

	// MaxRecords bounds the in-memory frozen-record list (default
	// DefaultMaxRecords; oldest evicted first). MaxWrites bounds how
	// many records are written to Dir (0 = unlimited).
	MaxRecords int
	MaxWrites  int

	// Pcap, when set, receives every datagram the network accepts
	// (netsim.OpSend), in send order: the whole scan's packet capture.
	// The caller flushes it after the scan.
	Pcap *PcapWriter
}

// Freezes reports whether c has a freeze rule (Triggers, TraceHosts or
// SampleRate). Without one the recorder opens no slabs and costs only
// the Pcap tap.
func (c *Config) Freezes() bool {
	return len(c.Triggers) > 0 || len(c.TraceHosts) > 0 || c.SampleRate > 0
}

// recorderMetrics caches registry handles; all fields may be nil when
// the recorder is not bound to a registry.
type recorderMetrics struct {
	frozen      *metrics.Counter
	recycled    *metrics.Counter
	overwritten *metrics.Counter
	pktSkipped  *metrics.Counter
	writeErrs   *metrics.Counter
	active      *metrics.Gauge
}

// Recorder implements netsim.Observer and the scanner's FlightSink,
// multiplexing events onto per-target slabs. All simulation-side
// methods run on the single simulation goroutine; the frozen-record
// list is mutex-guarded so the live debug endpoint can read it
// mid-scan.
type Recorder struct {
	cfg    Config
	local  wire.Addr
	active map[wire.Addr]*slab
	m      recorderMetrics

	// Scratch for packet decoding and ring linearization; reused across
	// events to keep the hot path allocation-free.
	ip      wire.IPv4Header
	tcp     wire.TCPHeader
	scratch []Event

	mu          sync.Mutex
	records     []*Record
	written     int
	totalFrozen int64
	writeErr    error
}

// NewRecorder creates a recorder with cfg (zero-value fields take the
// package defaults).
func NewRecorder(cfg Config) *Recorder {
	if cfg.EventCap <= 0 {
		cfg.EventCap = DefaultEventCap
	}
	if cfg.PacketBytes <= 0 {
		cfg.PacketBytes = DefaultPacketBytes
	}
	if cfg.MaxRecords <= 0 {
		cfg.MaxRecords = DefaultMaxRecords
	}
	return &Recorder{
		cfg:     cfg,
		active:  make(map[wire.Addr]*slab),
		scratch: make([]Event, 0, cfg.EventCap),
	}
}

// Attach wires the recorder into a simulation: local is the scanner's
// address (the "us" side used to attribute packets to targets), the
// network gets the recorder as its observer, and the recorder's
// counters bind into the network's registry.
func (r *Recorder) Attach(n *netsim.Network, local wire.Addr) {
	r.local = local
	r.BindMetrics(n.Metrics())
	n.SetObserver(r)
}

// BindMetrics registers the recorder's counters in reg.
func (r *Recorder) BindMetrics(reg *metrics.Registry) {
	r.m = recorderMetrics{
		frozen:      reg.Counter("flight.records_frozen"),
		recycled:    reg.Counter("flight.slabs_recycled"),
		overwritten: reg.Counter("flight.events_overwritten"),
		pktSkipped:  reg.Counter("flight.packets_skipped"),
		writeErrs:   reg.Counter("flight.write_errors"),
		active:      reg.Gauge("flight.slabs_active"),
	}
}

// FingerprintKey returns a stable string summarizing the options that
// affect what the recorder captures, for inclusion in checkpoint
// fingerprints: resuming a scan under different forensic settings
// would silently change which records exist, so it must invalidate the
// checkpoint. A recorder with no freeze rule records nothing but the
// Pcap tap, so it is "off" like no recorder at all.
func (r *Recorder) FingerprintKey() string {
	if r == nil || !r.cfg.Freezes() {
		return "off"
	}
	trig := make([]string, 0, len(r.cfg.Triggers))
	for t := range r.cfg.Triggers {
		trig = append(trig, t)
	}
	sortStrings(trig)
	hosts := make([]string, 0, len(r.cfg.TraceHosts))
	for h := range r.cfg.TraceHosts {
		hosts = append(hosts, h.String())
	}
	sortStrings(hosts)
	return fmt.Sprintf("on|trig=%v|hosts=%v|sample=%g|seed=%d|cap=%d,%d",
		trig, hosts, r.cfg.SampleRate, r.cfg.Seed, r.cfg.EventCap, r.cfg.PacketBytes)
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// Begin opens (or reopens, on a retry relaunch) the journal for
// target. Without a freeze rule no journal could ever freeze, so none
// is opened.
func (r *Recorder) Begin(at netsim.Time, target wire.Addr) {
	if !r.cfg.Freezes() {
		return
	}
	if s := r.active[target]; s != nil {
		// Retried launch of the same target: restart the timeline.
		s.reset(target, at)
		return
	}
	s := getSlab(r.cfg.EventCap, r.cfg.PacketBytes, defaultPacketCap)
	s.reset(target, at)
	r.active[target] = s
	if r.m.active != nil {
		r.m.active.Set(int64(len(r.active)))
	}
}

// End closes the journal for target with the oracle-joined verdict. If
// an anomaly trigger matches, the timeline freezes into a Record
// (returned true); otherwise the slab is recycled untouched.
func (r *Recorder) End(at netsim.Time, target wire.Addr, verdict, detail string) bool {
	s := r.active[target]
	if s == nil {
		return false
	}
	delete(r.active, target)
	if r.m.active != nil {
		r.m.active.Set(int64(len(r.active)))
	}
	trigger, freeze := r.shouldFreeze(target, verdict)
	if !freeze {
		if r.m.recycled != nil {
			r.m.recycled.Inc()
		}
		putSlab(s)
		return false
	}
	s.addEvent(Event{At: at, Kind: KindVerdict, Note: verdict})
	rec := r.buildRecord(s, at, verdict, detail, trigger)
	if r.m.frozen != nil {
		r.m.frozen.Inc()
		r.m.overwritten.Add(int64(s.truncated))
		r.m.pktSkipped.Add(int64(s.pktSkipped))
	}
	putSlab(s)
	r.keepAndWrite(rec)
	return true
}

// shouldFreeze applies the anomaly triggers in precedence order:
// explicit trace-host filter, then the verdict set, then deterministic
// sampling.
func (r *Recorder) shouldFreeze(target wire.Addr, verdict string) (string, bool) {
	if r.cfg.TraceHosts[target] {
		return "host", true
	}
	if len(r.cfg.Triggers) > 0 {
		if r.cfg.Triggers["all"] || r.cfg.Triggers[verdict] {
			return "verdict", true
		}
		// Core taxa look like "error:loss-gap"; match the class too.
		for i := 0; i < len(verdict); i++ {
			if verdict[i] == ':' {
				if r.cfg.Triggers[verdict[:i]] {
					return "verdict", true
				}
				break
			}
		}
	}
	if r.cfg.SampleRate > 0 && sampleHash(r.cfg.Seed, target) < r.cfg.SampleRate {
		return "sample", true
	}
	return "", false
}

// sampleHash maps (seed, target) to [0,1) with a splitmix64 finalizer.
// Deliberately independent of the simulation RNG.
func sampleHash(seed uint64, target wire.Addr) float64 {
	x := seed ^ (uint64(target)+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// keepAndWrite retains rec in memory (bounded) and writes it to the
// configured directory.
func (r *Recorder) keepAndWrite(rec *Record) {
	r.mu.Lock()
	r.totalFrozen++
	n := r.totalFrozen
	r.records = append(r.records, rec)
	if len(r.records) > r.cfg.MaxRecords {
		copy(r.records, r.records[1:])
		r.records[len(r.records)-1] = nil
		r.records = r.records[:len(r.records)-1]
	}
	write := r.cfg.Dir != "" && (r.cfg.MaxWrites == 0 || r.written < r.cfg.MaxWrites)
	if write {
		r.written++
	}
	r.mu.Unlock()
	if !write {
		return
	}
	base := filepath.Join(r.cfg.Dir, fmt.Sprintf("%05d-%s", n, rec.Target))
	if err := rec.Save(base); err != nil {
		if r.m.writeErrs != nil {
			r.m.writeErrs.Inc()
		}
		r.mu.Lock()
		if r.writeErr == nil {
			r.writeErr = err
		}
		r.mu.Unlock()
	}
}

// Records returns the retained frozen records, oldest first. Safe to
// call from other goroutines (the debug endpoint) mid-scan.
func (r *Recorder) Records() []*Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Record, len(r.records))
	copy(out, r.records)
	return out
}

// TotalFrozen returns how many records have been frozen so far.
func (r *Recorder) TotalFrozen() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totalFrozen
}

// Written returns how many records have been written to Dir.
func (r *Recorder) Written() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.written
}

// WriteErr returns the first record-write error, if any.
func (r *Recorder) WriteErr() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.writeErr
}

// ActiveSlabs returns the number of currently recording probes.
func (r *Recorder) ActiveSlabs() int { return len(r.active) }

// --- netsim.Observer ---

// PacketEvent writes every sent datagram to the Pcap tap, then routes
// the op to the slab of whichever endpoint is an actively recorded
// target. Runs on the simulation hot path: one map lookup plus an
// in-place decode, no allocation.
func (r *Recorder) PacketEvent(op netsim.PacketOp, at netsim.Time, pkt []byte) {
	if op == netsim.OpSend && r.cfg.Pcap != nil {
		r.cfg.Pcap.Write(at, pkt)
	}
	if len(r.active) == 0 {
		return
	}
	payload, err := wire.DecodeIPv4Into(&r.ip, pkt)
	if err != nil {
		return
	}
	target := r.ip.Dst
	if target == r.local {
		target = r.ip.Src
	}
	s := r.active[target]
	if s == nil {
		return
	}
	ev := Event{
		At:    at,
		Kind:  KindPacket,
		Op:    op,
		Src:   r.ip.Src,
		Dst:   r.ip.Dst,
		Proto: r.ip.Protocol,
		Len:   uint32(len(payload)),
	}
	if r.ip.Protocol == wire.ProtoTCP {
		if data, err := wire.DecodeTCPInto(&r.tcp, r.ip.Src, r.ip.Dst, payload); err == nil {
			ev.SrcPort = r.tcp.SrcPort
			ev.DstPort = r.tcp.DstPort
			ev.Flags = r.tcp.Flags
			ev.Seq = r.tcp.Seq
			ev.Ack = r.tcp.Ack
			ev.Len = uint32(len(data))
		}
	}
	s.addEvent(ev)
	// One raw copy per distinct network packet: the original at send
	// time and any duplicate the path injects.
	if op == netsim.OpSend || op == netsim.OpDuplicate {
		s.addPacket(at, pkt)
	}
}

// Note routes an endpoint annotation (server TCP stack) to the
// conversation's target slab.
func (r *Recorder) Note(at netsim.Time, src, dst wire.Addr, note string, a, b int64) {
	target := src
	if target == r.local {
		target = dst
	}
	s := r.active[target]
	if s == nil {
		return
	}
	s.addEvent(Event{At: at, Kind: KindStack, Note: note, Src: src, Dst: dst, A: a, B: b})
}

// --- estimator-side sink (core.FlightSink) ---

// ProbePhase records a probe lifecycle phase transition.
func (r *Recorder) ProbePhase(at netsim.Time, target wire.Addr, phase string) {
	if s := r.active[target]; s != nil {
		s.addEvent(Event{At: at, Kind: KindPhase, Note: phase})
	}
}

// ProbeSegment records the estimator's classification of one received
// data segment (class "new", "reorder" or "retransmit").
func (r *Recorder) ProbeSegment(at netsim.Time, target wire.Addr, off, length int, class string) {
	if s := r.active[target]; s != nil {
		s.addEvent(Event{At: at, Kind: KindSegment, Note: class, A: int64(off), B: int64(length)})
	}
}

// ProbeStep records an estimator step with two integer arguments.
func (r *Recorder) ProbeStep(at netsim.Time, target wire.Addr, note string, a, b int64) {
	if s := r.active[target]; s != nil {
		s.addEvent(Event{At: at, Kind: KindStep, Note: note, A: a, B: b})
	}
}

// writeFile writes data atomically enough for our purposes (records
// are never rewritten).
func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
