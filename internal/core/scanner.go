package core

import (
	"iwscan/internal/metrics"
	"iwscan/internal/netsim"
	"iwscan/internal/stats"
	"iwscan/internal/wire"
)

// Config tunes the prober.
type Config struct {
	// SynTimeout bounds the wait for a SYN-ACK.
	SynTimeout netsim.Time
	// CollectTimeout bounds the wait for the response burst and the
	// server's retransmission; it must exceed the server RTO.
	CollectTimeout netsim.Time
	// VerifyTimeout bounds the wait after the verification ACK.
	VerifyTimeout netsim.Time
	// Window is the large receive window announced in the SYN so only
	// the IW, never flow control, limits the server (§3.1).
	Window uint16
	// HeadCap bounds how many response-prefix bytes are retained for
	// redirect parsing.
	HeadCap int
	// Seed drives ISN generation and the TLS ClientHello randoms.
	Seed uint64
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.SynTimeout == 0 {
		out.SynTimeout = 3 * netsim.Second
	}
	if out.CollectTimeout == 0 {
		out.CollectTimeout = 5 * netsim.Second
	}
	if out.VerifyTimeout == 0 {
		out.VerifyTimeout = 2 * netsim.Second
	}
	if out.Window == 0 {
		out.Window = 65535
	}
	if out.HeadCap == 0 {
		out.HeadCap = 2048
	}
	return out
}

// Counters aggregate scanner-side statistics.
type Counters struct {
	ProbesStarted  int64
	SynAcks        int64 // handshakes that completed (the hit count)
	PacketsSent    int64
	PacketsRcvd    int64
	Retransmits    int64 // retransmissions detected (the IW signal)
	VerifyReleases int64 // verification ACKs that released more data
}

// probePhase is a step of the Figure-1 lifecycle a connection probe
// moves through before its verdict.
type probePhase uint8

const (
	phaseSynSent probePhase = iota
	phaseSynAck
	phaseRetransmitSeen
	phaseBurstCollected
	phaseVerifyRelease
	numPhases
)

// phaseNames names each phase in metric names and flight records.
var phaseNames = [numPhases]string{
	phaseSynSent:        "syn_sent",
	phaseSynAck:         "syn_ack",
	phaseRetransmitSeen: "retransmit_seen",
	phaseBurstCollected: "burst_collected",
	phaseVerifyRelease:  "verify_release",
}

// coreMetrics caches the registry handles used on the per-segment hot
// path, and aggregates every probe's lifecycle:
//
//	core.probe.phase.<from>_to_<to>_ns  histogram of each transition
//	core.probe.lifetime_ns              histogram of SYN→end durations
//	core.probe.outcome.<taxon>          counter per terminal outcome
//
// The lifecycle handles are resolved on first use, not up front: the
// registry creates a metric when it is first asked for and a snapshot
// lists what exists, so a scan reports only the transitions and taxa
// it saw. A Scanner runs on its network's one goroutine, so none of
// this locks.
type coreMetrics struct {
	reg            *metrics.Registry
	probesStarted  *metrics.Counter
	synAcks        *metrics.Counter
	packetsSent    *metrics.Counter
	packetsRcvd    *metrics.Counter
	retransmits    *metrics.Counter
	verifyReleases *metrics.Counter
	rtt            *metrics.Histogram // SYN → SYN-ACK, virtual ns

	phases   [numPhases][numPhases]*metrics.Histogram // by (from, to)
	lifetime *metrics.Histogram
	outcomes map[outcomeKey]*metrics.Counter
}

// outcomeKey is a taxon before it is rendered: the counter table is
// keyed by it so that counting a refined outcome builds no string.
type outcomeKey struct {
	outcome Outcome
	err     string
}

func newCoreMetrics(reg *metrics.Registry) coreMetrics {
	return coreMetrics{
		reg:            reg,
		probesStarted:  reg.Counter("core.probes_started"),
		synAcks:        reg.Counter("core.synacks"),
		packetsSent:    reg.Counter("core.packets_sent"),
		packetsRcvd:    reg.Counter("core.packets_rcvd"),
		retransmits:    reg.Counter("core.retransmits"),
		verifyReleases: reg.Counter("core.verify_releases"),
		rtt:            reg.Histogram("core.rtt_ns"),
		outcomes:       make(map[outcomeKey]*metrics.Counter),
	}
}

// phase records a from→to lifecycle transition that took d.
func (m *coreMetrics) phase(from, to probePhase, d netsim.Time) {
	h := m.phases[from][to]
	if h == nil {
		h = m.reg.Histogram("core.probe.phase." + phaseNames[from] + "_to_" + phaseNames[to] + "_ns")
		m.phases[from][to] = h
	}
	h.Observe(int64(d))
}

// outcome counts a finished probe's taxon and records its lifetime.
func (m *coreMetrics) outcome(r *ProbeResult, lifetime netsim.Time) {
	k := outcomeKey{r.Outcome, r.Err}
	c := m.outcomes[k]
	if c == nil {
		c = m.reg.Counter("core.probe.outcome." + r.Taxon())
		m.outcomes[k] = c
	}
	c.Inc()
	if m.lifetime == nil {
		m.lifetime = m.reg.Histogram("core.probe.lifetime_ns")
	}
	m.lifetime.Observe(int64(lifetime))
}

// FlightSink receives estimator-level events for the per-probe flight
// recorder. It is defined here as an interface (implemented by
// internal/flight.Recorder) so core does not depend on the recorder.
// All methods are invoked on the simulation goroutine; note and class
// arguments are static strings except the final probe taxon.
type FlightSink interface {
	// ProbePhase records a probe lifecycle phase transition.
	ProbePhase(at netsim.Time, target wire.Addr, phase string)
	// ProbeSegment records the classification of one received data
	// segment: class is "new", "reorder" or "retransmit", off/length
	// locate it in the response stream.
	ProbeSegment(at netsim.Time, target wire.Addr, off, length int, class string)
	// ProbeStep records an estimator step with two integer arguments
	// (e.g. the verification ACK's shrunken window and ack point).
	ProbeStep(at netsim.Time, target wire.Addr, note string, a, b int64)
}

// Scanner is the probing endpoint: a netsim node that multiplexes many
// concurrent connection probes over local ports, the way the ZMap probe
// module keeps per-connection state (§3.4).
type Scanner struct {
	net   *netsim.Network
	addr  wire.Addr
	cfg   Config
	rng   *stats.RNG
	conns map[uint16]*connProbe
	next  uint16
	stats Counters
	ipid  uint16
	cm    coreMetrics
	fl    FlightSink     // nil unless a flight recorder is attached
	free  []*targetProbe // finished targets' states, for ProbeTarget to reuse
	bloat string         // the last httpsim.BloatedPath built, by its length
}

// NewScanner creates a scanner at addr and registers it with the
// network.
func NewScanner(n *netsim.Network, addr wire.Addr, cfg Config) *Scanner {
	s := &Scanner{
		net:   n,
		addr:  addr,
		cfg:   cfg.withDefaults(),
		rng:   stats.NewRNG(cfg.Seed ^ 0x5ca99e5),
		conns: make(map[uint16]*connProbe),
		next:  10000,
		cm:    newCoreMetrics(n.Metrics()),
	}
	n.Register(addr, s)
	return s
}

// SetFlight attaches a flight recorder sink (nil detaches). Callers
// must pass nil rather than a nil-valued concrete interface.
func (s *Scanner) SetFlight(fl FlightSink) { s.fl = fl }

// Addr returns the scanner's source address.
func (s *Scanner) Addr() wire.Addr { return s.addr }

// Stats returns a snapshot of the counters.
func (s *Scanner) Stats() Counters { return s.stats }

// ActiveConns returns the number of in-flight connection probes.
func (s *Scanner) ActiveConns() int { return len(s.conns) }

// HandlePacket implements netsim.Node: dispatch by destination port.
// Headers decode into stack structs, so the receive path itself does
// not allocate.
func (s *Scanner) HandlePacket(pkt []byte) {
	var ip wire.IPv4Header
	payload, err := wire.DecodeIPv4Into(&ip, pkt)
	if err != nil || ip.Dst != s.addr || ip.Protocol != wire.ProtoTCP {
		return
	}
	var tcp wire.TCPHeader
	data, err := wire.DecodeTCPInto(&tcp, ip.Src, ip.Dst, payload)
	if err != nil {
		return
	}
	s.stats.PacketsRcvd++
	s.cm.packetsRcvd.Inc()
	c := s.conns[tcp.DstPort]
	if c == nil || c.target != ip.Src || c.dstPort != tcp.SrcPort {
		return
	}
	c.handleSegment(&tcp, data)
}

// allocPort reserves a free local port.
func (s *Scanner) allocPort() uint16 {
	for {
		p := s.next
		s.next++
		if s.next >= 60000 {
			s.next = 10000
		}
		if _, busy := s.conns[p]; !busy {
			return p
		}
	}
}

// send encodes the probe segment and its IPv4 header into one pooled
// buffer and hands ownership to the network — the scanner's send fast
// path.
func (s *Scanner) send(dst wire.Addr, h *wire.TCPHeader, payload []byte) {
	s.stats.PacketsSent++
	s.cm.packetsSent.Inc()
	s.ipid++
	hdr := wire.IPv4Header{
		Protocol: wire.ProtoTCP,
		Src:      s.addr,
		Dst:      dst,
		ID:       s.ipid,
		Flags:    wire.IPFlagDF,
	}
	p := s.net.GetPacket()
	p.B = wire.AppendTCPPacket(p.B, &hdr, h, payload)
	s.net.SendPacket(p)
}

// open starts a connection probe on c, which is idle: never used, or
// finished. Every per-connection field starts from zero; the owner, the
// bound timer and the coverage array are kept. c.owner.probeDone runs
// exactly once when the connection ends.
func (c *connProbe) open(mss int, payload []byte, keepHead, synOnly bool) {
	s, tp := c.sc, c.owner
	s.stats.ProbesStarted++
	s.cm.probesStarted.Inc()
	*c = connProbe{
		sc:        s,
		owner:     tp,
		target:    tp.target,
		dstPort:   tp.cfg.Port,
		localPort: s.allocPort(),
		mss:       mss,
		payload:   payload,
		keepHead:  keepHead,
		synOnly:   synOnly,
		isn:       s.rng.Uint32(),
		cov:       coverage{ivals: c.cov.ivals[:0]},
		timer:     c.timer,
	}
	if keepHead {
		tp.head = tp.head[:0]
	}
	s.conns[c.localPort] = c
	c.start()
}

// connProbe is the per-connection inference state machine of Figure 1.
type connProbe struct {
	sc        *Scanner
	owner     *targetProbe // the target this connection probes
	target    wire.Addr
	dstPort   uint16
	localPort uint16
	mss       int
	payload   []byte // the request sent with the handshake-completing ACK
	keepHead  bool   // record the response prefix into owner.head
	// synOnly runs a plain ZMap-style port scan: SYN, then RST the
	// SYN-ACK (§3.4's baseline for the efficiency comparison).
	synOnly bool

	state probeState
	isn   uint32
	irs   uint32 // server's initial sequence number

	cov     coverage
	segs    int // distinct data segments received
	maxSeg  int
	sawFIN  bool
	finOff  int // stream offset just past the FIN (response length)
	reorder bool

	synAt   netsim.Time // when the SYN left: the RTT and lifetime base
	phase   probePhase  // the lifecycle phase last entered
	phaseAt netsim.Time // when it was entered

	// timer bounds the current state's wait; onTimeout reads the state
	// to tell which wait expired. It is bound once, when the owner is
	// made.
	timer netsim.Timer
}

type probeState int

const (
	stateSynSent probeState = iota
	stateCollecting
	stateVerifying
	stateDone
)

func (c *connProbe) start() {
	c.synAt = c.sc.net.Now()
	c.phase, c.phaseAt = phaseSynSent, c.synAt
	if fl := c.sc.fl; fl != nil {
		fl.ProbePhase(c.synAt, c.target, phaseNames[phaseSynSent])
		fl.ProbeStep(c.synAt, c.target, "syn_options", int64(c.mss), int64(c.sc.cfg.Window))
	}
	var h wire.TCPHeader
	h.Reset()
	h.SrcPort = c.localPort
	h.DstPort = c.dstPort
	h.Seq = c.isn
	h.Flags = wire.FlagSYN
	h.Window = c.sc.cfg.Window
	h.MSS = uint16(c.mss)
	// No SACK-permitted: §3.1 disables selective acknowledgment to keep
	// tail loss probes from skewing the estimate.
	c.sc.send(c.target, &h, nil)
	c.timer.Arm(c.sc.cfg.SynTimeout)
}

// onTimeout handles the expiry of the wait the current state armed.
func (c *connProbe) onTimeout() {
	switch c.state {
	case stateSynSent:
		c.finish(ProbeResult{Outcome: OutcomeUnreachable, Err: "syn-timeout"}, false)
	case stateCollecting:
		c.onCollectTimeout()
	case stateVerifying:
		// Silence: the host was out of data but keeps the connection
		// open (typical for TLS mid-handshake).
		c.finishFewData()
	}
}

// trace records a lifecycle phase transition at the current virtual
// time, mirrored into the flight recorder when one is attached.
func (c *connProbe) trace(p probePhase) {
	now := c.sc.net.Now()
	c.sc.cm.phase(c.phase, p, now-c.phaseAt)
	c.phase, c.phaseAt = p, now
	if fl := c.sc.fl; fl != nil {
		fl.ProbePhase(now, c.target, phaseNames[p])
	}
}

// flStep forwards one estimator step to the flight recorder.
func (c *connProbe) flStep(note string, a, b int64) {
	if fl := c.sc.fl; fl != nil {
		fl.ProbeStep(c.sc.net.Now(), c.target, note, a, b)
	}
}

// flSeg forwards one data-segment classification to the flight
// recorder.
func (c *connProbe) flSeg(off, length int, class string) {
	if fl := c.sc.fl; fl != nil {
		fl.ProbeSegment(c.sc.net.Now(), c.target, off, length, class)
	}
}

// finish reports the result and tears the connection down. When rst is
// true a RST is sent to free state at the remote host.
func (c *connProbe) finish(r ProbeResult, rst bool) {
	if c.state == stateDone {
		return
	}
	c.state = stateDone
	c.timer.Cancel()
	now := c.sc.net.Now()
	c.sc.cm.outcome(&r, now-c.synAt)
	if fl := c.sc.fl; fl != nil {
		fl.ProbePhase(now, c.target, "done:"+r.Taxon())
		fl.ProbeStep(now, c.target, "probe_result", int64(r.Bytes), int64(r.Segments))
	}
	if rst {
		var h wire.TCPHeader
		h.Reset()
		h.SrcPort = c.localPort
		h.DstPort = c.dstPort
		h.Seq = c.nextSeq()
		h.Ack = c.irs + 1 + uint32(c.cov.max())
		h.Flags = wire.FlagRST | wire.FlagACK
		c.sc.send(c.target, &h, nil)
	}
	delete(c.sc.conns, c.localPort)
	c.owner.probeDone(r)
}

// nextSeq is the scanner's current send sequence number.
func (c *connProbe) nextSeq() uint32 {
	return c.isn + 1 + uint32(len(c.payload))
}

func (c *connProbe) handleSegment(tcp *wire.TCPHeader, data []byte) {
	if c.state == stateDone {
		return
	}
	if tcp.HasFlag(wire.FlagRST) {
		switch c.state {
		case stateSynSent:
			c.finish(ProbeResult{Outcome: OutcomeUnreachable, Err: "refused"}, false)
		default:
			c.finish(c.result(OutcomeError, "reset"), false)
		}
		return
	}
	switch c.state {
	case stateSynSent:
		if !tcp.HasFlag(wire.FlagSYN|wire.FlagACK) || tcp.Ack != c.isn+1 {
			return
		}
		c.irs = tcp.Seq
		c.sc.stats.SynAcks++
		c.sc.cm.synAcks.Inc()
		c.sc.cm.rtt.Observe(int64(c.sc.net.Now() - c.synAt))
		c.trace(phaseSynAck)
		c.flStep("synack_options", int64(tcp.MSS), int64(tcp.Window))
		if c.synOnly {
			// Port scan: the port is open; RST and report.
			c.finish(ProbeResult{Outcome: OutcomeSuccess}, true)
			return
		}
		// Complete the handshake and send the request in one segment.
		var h wire.TCPHeader
		h.Reset()
		h.SrcPort = c.localPort
		h.DstPort = c.dstPort
		h.Seq = c.isn + 1
		h.Ack = c.irs + 1
		h.Flags = wire.FlagACK | wire.FlagPSH
		h.Window = c.sc.cfg.Window
		c.sc.send(c.target, &h, c.payload)
		c.state = stateCollecting
		c.timer.Arm(c.sc.cfg.CollectTimeout)
	case stateCollecting:
		c.collect(tcp, data)
	case stateVerifying:
		c.verify(tcp, data)
	}
}

// collect processes response segments until the first retransmission.
func (c *connProbe) collect(tcp *wire.TCPHeader, data []byte) {
	if tcp.HasFlag(wire.FlagSYN) {
		// A retransmitted SYN-ACK means our handshake ACK (which carries
		// the request) was lost: send it again, or the server will never
		// produce the response burst.
		c.flStep("synack_retransmit_seen", int64(tcp.Seq), 0)
		var h wire.TCPHeader
		h.Reset()
		h.SrcPort = c.localPort
		h.DstPort = c.dstPort
		h.Seq = c.isn + 1
		h.Ack = c.irs + 1
		h.Flags = wire.FlagACK | wire.FlagPSH
		h.Window = c.sc.cfg.Window
		c.sc.send(c.target, &h, c.payload)
		return
	}
	if len(data) > 0 {
		off := int(tcp.Seq - (c.irs + 1))
		if off < 0 {
			return
		}
		switch c.cov.add(off, off+len(data)) {
		case addRetransmit:
			c.sc.stats.Retransmits++
			c.sc.cm.retransmits.Inc()
			c.flSeg(off, len(data), "retransmit")
			c.trace(phaseRetransmitSeen)
			c.onRetransmission()
			return
		case addReorder:
			c.reorder = true
			c.flSeg(off, len(data), "reorder")
			c.record(off, data)
		case addNew:
			c.flSeg(off, len(data), "new")
			c.record(off, data)
		}
		if len(data) > c.maxSeg {
			c.maxSeg = len(data)
		}
		c.segs++
	}
	if tcp.HasFlag(wire.FlagFIN) {
		c.sawFIN = true
		// The FIN rides the highest-sequence segment, which reordering
		// can deliver before earlier segments. Remember where the
		// response ends and only conclude once coverage is contiguous
		// up to that point (or the retransmission timeout resolves it).
		off := int(tcp.Seq-(c.irs+1)) + len(data)
		if off > c.finOff {
			c.finOff = off
		}
	}
	if c.sawFIN && !c.cov.hasGap() && c.cov.contiguous() >= c.finOff {
		// The server finished its response inside the IW and every byte
		// of it has arrived: a few-data verdict is complete now.
		c.trace(phaseBurstCollected)
		c.finishFewData()
	}
}

// record copies payload into the owner's head buffer for later HTTP
// parsing, on the one connection of a probe whose head is parsed. A
// hole reads as zeros, whatever an earlier connection left in the
// buffer.
func (c *connProbe) record(off int, data []byte) {
	headCap := c.sc.cfg.HeadCap
	if !c.keepHead || off >= headCap {
		return
	}
	end := off + len(data)
	if end > headCap {
		end = headCap
		data = data[:end-off]
	}
	head := c.owner.head
	if len(head) < end {
		head = append(head, make([]byte, end-len(head))...)
	}
	copy(head[off:end], data)
	c.owner.head = head
}

// onRetransmission is the Figure-1 pivot: the burst is complete, so
// acknowledge everything with a two-segment window and watch for more.
func (c *connProbe) onRetransmission() {
	if c.cov.hasGap() {
		// A hole that never filled: loss corrupted the count.
		c.finish(c.result(OutcomeError, "loss-gap"), true)
		return
	}
	c.trace(phaseBurstCollected)
	if c.sawFIN {
		c.finishFewData()
		return
	}
	if c.cov.total() == 0 {
		c.finish(c.result(OutcomeNoData, ""), true)
		return
	}
	// Verification ACK: acknowledge all data, window = two segments.
	win := 2 * c.maxSeg
	if win > 65535 {
		win = 65535
	}
	c.flStep("verify_ack_shrink_window", int64(win), int64(c.cov.contiguous()))
	var h wire.TCPHeader
	h.Reset()
	h.SrcPort = c.localPort
	h.DstPort = c.dstPort
	h.Seq = c.nextSeq()
	h.Ack = c.irs + 1 + uint32(c.cov.contiguous())
	h.Flags = wire.FlagACK
	h.Window = uint16(win)
	c.sc.send(c.target, &h, nil)
	c.state = stateVerifying
	c.timer.Arm(c.sc.cfg.VerifyTimeout)
}

// verify watches for data past the acknowledged point.
func (c *connProbe) verify(tcp *wire.TCPHeader, data []byte) {
	if len(data) > 0 {
		off := int(tcp.Seq - (c.irs + 1))
		if off+len(data) > c.cov.max() {
			// New data released by our ACK: the host was IW-limited.
			c.sc.stats.VerifyReleases++
			c.sc.cm.verifyReleases.Inc()
			c.trace(phaseVerifyRelease)
			c.finish(c.result(OutcomeSuccess, ""), true)
			return
		}
		// A straggling retransmission; keep waiting.
		c.flStep("verify_straggler", int64(off), int64(len(data)))
		return
	}
	if tcp.HasFlag(wire.FlagFIN) {
		c.finishFewData()
	}
}

func (c *connProbe) onCollectTimeout() {
	c.flStep("collect_timeout", int64(c.cov.total()), int64(c.segs))
	if c.cov.total() == 0 {
		c.finish(c.result(OutcomeNoData, "silent"), true)
		return
	}
	// Data arrived but no retransmission was observed (all of them were
	// lost, or the host never retransmits): not trustworthy.
	c.finish(c.result(OutcomeError, "no-retransmission"), true)
}

func (c *connProbe) finishFewData() {
	if c.cov.total() == 0 {
		c.finish(c.result(OutcomeNoData, ""), true)
		return
	}
	c.finish(c.result(OutcomeFewData, ""), true)
}

// result assembles a ProbeResult from the connection state.
func (c *connProbe) result(o Outcome, err string) ProbeResult {
	return ProbeResult{
		Outcome:  o,
		Segments: c.segs,
		Bytes:    c.cov.total(),
		MaxSeg:   c.maxSeg,
		SawFIN:   c.sawFIN,
		Reorder:  c.reorder,
		Gap:      c.cov.hasGap(),
		Err:      err,
	}
}
