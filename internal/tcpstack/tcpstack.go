// Package tcpstack implements the server side of TCP in userspace, on
// top of the netsim packet network. It reproduces the transport
// behaviours the paper's initial-window inference keys on:
//
//   - a configurable initial congestion window (in segments, in bytes,
//     or "fill one MTU"), applied after the 3-way handshake;
//   - MSS negotiation quirks: the Linux-style floor (announced MSS below
//     64 B is raised to the floor) and the Windows-style fallback
//     (announced MSS below 536 B is replaced by 536 B);
//   - slow start: the congestion window grows by the number of newly
//     acknowledged bytes;
//   - retransmission: when no ACK arrives before the RTO, the first
//     unacknowledged segment is retransmitted with exponential backoff —
//     the signal the scanner counts bytes up to;
//   - flow control: the peer's advertised receive window is honoured,
//     which the scanner's verification step (ACK with a 2·MSS window)
//     relies on;
//   - FIN handling: a connection closed by the application sends its FIN
//     only once the send buffer has drained, so a FIN tells the scanner
//     the response fit inside the initial window.
//
// Applications (the HTTP and TLS server behaviours) attach to listening
// ports through the App/Session interfaces.
package tcpstack

import (
	"fmt"

	"iwscan/internal/netsim"
	"iwscan/internal/wire"
)

// IWKind selects how a host derives its initial congestion window.
type IWKind int

// Initial-window policies observed in the wild (§4.2 of the paper).
const (
	// IWSegments configures the IW as a segment count (the common case:
	// RFC 2001 IW1, RFC 3390 IW2-4, RFC 6928 IW10).
	IWSegments IWKind = iota
	// IWBytes configures the IW as a byte budget regardless of MSS (the
	// "4 kB hosts": 64 segments at MSS 64, 32 segments at MSS 128).
	IWBytes
	// IWMTUFill configures the IW so the burst fills one network MTU
	// (observed as 24 segments at MSS 64, 12 at MSS 128, i.e. 1536 B).
	IWMTUFill
)

// IWPolicy is a host's initial-window configuration.
type IWPolicy struct {
	Kind     IWKind
	Segments int // for IWSegments
	Bytes    int // for IWBytes and IWMTUFill
}

// IW returns the initial congestion window in bytes for a connection
// with the given effective MSS.
func (p IWPolicy) IW(effMSS int) int {
	switch p.Kind {
	case IWBytes, IWMTUFill:
		if p.Bytes <= 0 {
			return effMSS
		}
		return p.Bytes
	default:
		if p.Segments <= 0 {
			return effMSS
		}
		return p.Segments * effMSS
	}
}

// MSSPolicy models how an OS reacts to a peer-announced MSS.
type MSSPolicy struct {
	// Floor raises any announced MSS below it to Floor (Linux rejects
	// MSS below 64 B; an announcement of 48 behaves like 64).
	Floor int
	// Fallback replaces any announced MSS below it with Fallback itself
	// (Windows falls back to the 536 B default). Fallback wins over
	// Floor when both are set.
	Fallback int
}

// Effective returns the MSS the host will use for a peer that announced
// announced bytes, given the host's own maximum localMSS.
func (p MSSPolicy) Effective(announced, localMSS int) int {
	if announced <= 0 {
		announced = 536 // RFC 1122 default when no option is present
	}
	if p.Fallback > 0 && announced < p.Fallback {
		announced = p.Fallback
	} else if p.Floor > 0 && announced < p.Floor {
		announced = p.Floor
	}
	if localMSS > 0 && announced > localMSS {
		announced = localMSS
	}
	return announced
}

// Config describes a host's TCP stack.
type Config struct {
	IW       IWPolicy
	MSS      MSSPolicy
	LocalMSS int         // the host's own MSS announcement (default 1460)
	RTO      netsim.Time // initial retransmission timeout (default 1 s)
	MaxRetx  int         // retransmission attempts before giving up (default 5)
	IdleTime netsim.Time // tear down a silent connection after this (default 60 s)
	Window   uint16      // receive window to advertise (default 65535)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.LocalMSS == 0 {
		out.LocalMSS = 1460
	}
	if out.RTO == 0 {
		out.RTO = netsim.Second
	}
	if out.MaxRetx == 0 {
		out.MaxRetx = 5
	}
	if out.IdleTime == 0 {
		out.IdleTime = 60 * netsim.Second
	}
	if out.Window == 0 {
		out.Window = 65535
	}
	return out
}

// App accepts established connections on a listening port.
type App interface {
	// NewSession is invoked when a connection completes the handshake.
	// The returned session receives data and close events.
	NewSession(c *Conn) Session
}

// Session is the application side of one established connection.
type Session interface {
	// OnData delivers in-order application payload.
	OnData(data []byte)
	// OnPeerClose signals a FIN or RST from the peer.
	OnPeerClose()
}

// Counters aggregate per-host TCP statistics.
type Counters struct {
	Accepted       int64
	SegmentsSent   int64
	Retransmits    int64
	ResetsSent     int64
	ConnsAborted   int64
	ConnsCompleted int64
}

// Host is a simulated TCP endpoint bound to one IPv4 address.
type Host struct {
	net       *netsim.Network
	addr      wire.Addr
	cfg       Config
	listeners map[uint16]listener
	conns     map[connKey]*Conn
	onIdle    func(h *Host)
	stats     Counters
	ipid      uint16
}

// listener binds an app to a port, optionally overriding the host's IW
// policy for connections to that port (services on one IP can run with
// different IW configurations, as the paper observes for 858k hosts).
type listener struct {
	app App
	iw  *IWPolicy
}

// NewHost creates a host at addr with the given stack configuration and
// registers it with the network.
func NewHost(n *netsim.Network, addr wire.Addr, cfg Config) *Host {
	h := &Host{
		net:       n,
		addr:      addr,
		cfg:       cfg.withDefaults(),
		listeners: make(map[uint16]listener),
		conns:     make(map[connKey]*Conn),
	}
	n.Register(addr, h)
	return h
}

// Addr returns the host's address.
func (h *Host) Addr() wire.Addr { return h.addr }

// Stats returns a snapshot of the host's TCP counters.
func (h *Host) Stats() Counters { return h.stats }

// Listen binds app to a local TCP port.
func (h *Host) Listen(port uint16, app App) { h.listeners[port] = listener{app: app} }

// ListenIW binds app to a port with its own IW policy, overriding the
// host-wide configuration for connections to that port.
func (h *Host) ListenIW(port uint16, app App, iw IWPolicy) {
	h.listeners[port] = listener{app: app, iw: &iw}
}

// SetIdleFunc installs a callback invoked whenever the host's last
// connection is torn down; the Internet model uses it to reap hosts.
func (h *Host) SetIdleFunc(fn func(h *Host)) { h.onIdle = fn }

// ConnCount returns the number of live connections.
func (h *Host) ConnCount() int { return len(h.conns) }

type connKey struct {
	peer      wire.Addr
	peerPort  uint16
	localPort uint16
}

// HandlePacket implements netsim.Node. Headers are decoded into stack
// structs via the wire Into variants, so handling a packet does not
// allocate on its own.
func (h *Host) HandlePacket(pkt []byte) {
	var ip wire.IPv4Header
	payload, err := wire.DecodeIPv4Into(&ip, pkt)
	if err != nil || ip.Dst != h.addr {
		return
	}
	switch ip.Protocol {
	case wire.ProtoTCP:
		h.handleTCP(&ip, payload)
	case wire.ProtoICMP:
		h.handleICMP(&ip, payload)
	}
}

func (h *Host) handleICMP(ip *wire.IPv4Header, payload []byte) {
	var msg wire.ICMPHeader
	if err := wire.DecodeICMPInto(&msg, payload); err != nil || msg.Type != wire.ICMPEchoRequest {
		return
	}
	reply := wire.EncodeICMP(nil, &wire.ICMPHeader{
		Type: wire.ICMPEchoReply,
		ID:   msg.ID,
		Seq:  msg.Seq,
		Body: msg.Body,
	})
	h.sendIP(ip.Src, wire.ProtoICMP, reply, true)
}

func (h *Host) handleTCP(ip *wire.IPv4Header, payload []byte) {
	var tcp wire.TCPHeader
	data, err := wire.DecodeTCPInto(&tcp, ip.Src, ip.Dst, payload)
	if err != nil {
		return
	}
	key := connKey{peer: ip.Src, peerPort: tcp.SrcPort, localPort: tcp.DstPort}
	if c, ok := h.conns[key]; ok {
		c.handleSegment(&tcp, data)
		return
	}
	// No connection. A SYN to a listening port opens one; everything
	// else (except RSTs) gets a RST.
	if tcp.HasFlag(wire.FlagSYN) && !tcp.HasFlag(wire.FlagACK) {
		if l, ok := h.listeners[tcp.DstPort]; ok {
			h.accept(key, l, &tcp)
			return
		}
	}
	if !tcp.HasFlag(wire.FlagRST) {
		h.sendRSTFor(key, &tcp, len(data))
	}
}

func (h *Host) accept(key connKey, l listener, syn *wire.TCPHeader) {
	effMSS := h.cfg.MSS.Effective(int(syn.MSS), h.cfg.LocalMSS)
	c := &Conn{
		host:    h,
		key:     key,
		app:     l.app,
		iw:      l.iw,
		state:   stateSynRcvd,
		effMSS:  effMSS,
		peerWnd: int(syn.Window),
		iss:     h.net.RNG().Uint32(),
		irs:     syn.Seq,
	}
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1 // SYN consumes one sequence number
	c.rcvNxt = syn.Seq + 1
	c.rto = h.cfg.RTO
	c.retx.Bind(h.net, func(a any) { a.(*Conn).onRetxTimeout() }, c)
	c.idle.Bind(h.net, func(a any) { a.(*Conn).onIdle() }, c)
	c.flush.Bind(h.net, func(a any) { a.(*Conn).trySend() }, c)
	h.conns[key] = c
	h.stats.Accepted++
	c.sendSynAck()
	c.retx.Arm(c.rto)
	c.touchIdle()
}

// sendRSTFor answers an out-of-the-blue segment with a RST (RFC 793 §3.4).
func (h *Host) sendRSTFor(key connKey, tcp *wire.TCPHeader, dataLen int) {
	var rst wire.TCPHeader
	rst.Reset()
	rst.SrcPort = key.localPort
	rst.DstPort = key.peerPort
	if tcp.HasFlag(wire.FlagACK) {
		rst.Seq = tcp.Ack
		rst.Flags = wire.FlagRST
	} else {
		seqLen := uint32(dataLen)
		if tcp.HasFlag(wire.FlagSYN) {
			seqLen++
		}
		if tcp.HasFlag(wire.FlagFIN) {
			seqLen++
		}
		rst.Flags = wire.FlagRST | wire.FlagACK
		rst.Ack = tcp.Seq + seqLen
	}
	h.stats.ResetsSent++
	h.sendTCP(key.peer, &rst, nil)
}

// sendTCP encodes the TCP segment and its IPv4 header directly into one
// pooled buffer (a single copy of the payload) and hands ownership to
// the network — the per-segment send fast path.
func (h *Host) sendTCP(dst wire.Addr, tcp *wire.TCPHeader, payload []byte) {
	h.ipid++
	hdr := wire.IPv4Header{
		Protocol: wire.ProtoTCP,
		Src:      h.addr,
		Dst:      dst,
		ID:       h.ipid,
	}
	p := h.net.GetPacket()
	p.B = wire.AppendTCPPacket(p.B, &hdr, tcp, payload)
	h.net.SendPacket(p)
}

func (h *Host) sendIP(dst wire.Addr, proto byte, payload []byte, df bool) {
	h.ipid++
	hdr := wire.IPv4Header{
		Protocol: proto,
		Src:      h.addr,
		Dst:      dst,
		ID:       h.ipid,
	}
	if df {
		hdr.Flags = wire.IPFlagDF
	}
	p := h.net.GetPacket()
	p.B = wire.EncodeIPv4(p.B, &hdr, payload)
	h.net.SendPacket(p)
}

func (h *Host) removeConn(c *Conn) {
	if _, ok := h.conns[c.key]; !ok {
		return
	}
	delete(h.conns, c.key)
	if len(h.conns) == 0 && h.onIdle != nil {
		h.onIdle(h)
	}
}

// --- connection ---

type connState int

const (
	stateSynRcvd connState = iota
	stateEstablished
	stateCloseWait // peer sent FIN, we may still send
	stateLastAck   // we sent FIN after peer's FIN
	stateFinWait   // we sent FIN first
	stateClosed
)

func (s connState) String() string {
	switch s {
	case stateSynRcvd:
		return "SYN_RCVD"
	case stateEstablished:
		return "ESTABLISHED"
	case stateCloseWait:
		return "CLOSE_WAIT"
	case stateLastAck:
		return "LAST_ACK"
	case stateFinWait:
		return "FIN_WAIT"
	default:
		return "CLOSED"
	}
}

// Conn is one server-side TCP connection.
type Conn struct {
	host    *Host
	key     connKey
	app     App
	iw      *IWPolicy // per-listener override, nil = host default
	session Session
	state   connState

	effMSS  int
	cwnd    int // congestion window in bytes
	peerWnd int // peer's advertised receive window in bytes

	iss, sndUna, sndNxt uint32
	irs, rcvNxt         uint32

	// sndQueue holds all bytes from sndUna upward: first `inflightBytes`
	// are transmitted-but-unacked, the rest is waiting for window.
	sndQueue      []byte
	inflightBytes int

	pendingClose bool // app closed; send FIN once the queue drains
	finSent      bool
	finAcked     bool

	rto          netsim.Time
	retx         netsim.Timer
	idle         netsim.Timer
	flush        netsim.Timer // the zero-delay flush scheduled by Write/Close
	idleDeadline netsim.Time
	retries      int
}

// RemoteAddr returns the peer's address.
func (c *Conn) RemoteAddr() wire.Addr { return c.key.peer }

// RemotePort returns the peer's port.
func (c *Conn) RemotePort() uint16 { return c.key.peerPort }

// LocalPort returns the local (listening) port.
func (c *Conn) LocalPort() uint16 { return c.key.localPort }

// EffMSS returns the negotiated effective MSS for this connection.
func (c *Conn) EffMSS() int { return c.effMSS }

// State returns a human-readable connection state (for tracing).
func (c *Conn) State() string { return c.state.String() }

// Write queues application data for transmission. Transmission happens
// on a zero-delay flush event, so a Write immediately followed by Close
// (the common server pattern) piggybacks the FIN on the last data
// segment, as real stacks do.
//
// Ownership: the caller must not modify data after Write returns, for
// as long as the connection lives. When the send queue is empty the
// connection adopts the slice instead of copying it, and from then on
// only reads and reslices it — the capacity is clamped to the length,
// so a later Write appends into a fresh array, never into the caller's.
// One slice may therefore be written to any number of connections, which
// is how the app servers send a response they rendered once.
func (c *Conn) Write(data []byte) {
	if c.state == stateClosed || c.pendingClose {
		return
	}
	if len(c.sndQueue) == 0 {
		c.sndQueue = data[:len(data):len(data)]
	} else {
		c.sndQueue = append(c.sndQueue, data...)
	}
	c.scheduleFlush()
}

// Close asks the connection to send a FIN once all queued data has been
// transmitted and acknowledged by congestion/flow control.
func (c *Conn) Close() {
	if c.state == stateClosed || c.pendingClose {
		return
	}
	c.pendingClose = true
	c.scheduleFlush()
}

func (c *Conn) scheduleFlush() {
	if !c.flush.Pending() {
		c.flush.Arm(0)
	}
}

// Abort sends a RST and tears the connection down immediately.
func (c *Conn) Abort() {
	if c.state == stateClosed {
		return
	}
	var rst wire.TCPHeader
	rst.Reset()
	rst.SrcPort = c.key.localPort
	rst.DstPort = c.key.peerPort
	rst.Seq = c.sndNxt
	rst.Flags = wire.FlagRST | wire.FlagACK
	rst.Ack = c.rcvNxt
	c.host.stats.ResetsSent++
	c.host.sendTCP(c.key.peer, &rst, nil)
	c.destroy(false)
}

func (c *Conn) destroy(completed bool) {
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	c.retx.Cancel()
	c.idle.Cancel()
	if completed {
		c.host.stats.ConnsCompleted++
	} else {
		c.host.stats.ConnsAborted++
	}
	c.host.removeConn(c)
}

// touchIdle pushes the idle deadline forward. The timer itself is armed
// lazily: when it fires early it re-arms for the remainder instead of
// being re-pushed on every segment, which keeps the event heap small.
func (c *Conn) touchIdle() {
	c.idleDeadline = c.host.net.Now() + c.host.cfg.IdleTime
	if !c.idle.Pending() {
		c.idle.ArmAt(c.idleDeadline)
	}
}

func (c *Conn) onIdle() {
	if c.host.net.Now() < c.idleDeadline {
		c.idle.ArmAt(c.idleDeadline)
		return
	}
	c.destroy(false)
}

func (c *Conn) sendSynAck() {
	var h wire.TCPHeader
	h.Reset()
	h.SrcPort = c.key.localPort
	h.DstPort = c.key.peerPort
	h.Seq = c.iss
	h.Ack = c.rcvNxt
	h.Flags = wire.FlagSYN | wire.FlagACK
	h.Window = c.host.cfg.Window
	h.MSS = uint16(c.host.cfg.LocalMSS)
	c.host.stats.SegmentsSent++
	c.host.sendTCP(c.key.peer, &h, nil)
}

func (c *Conn) handleSegment(tcp *wire.TCPHeader, data []byte) {
	if c.state == stateClosed {
		return
	}
	c.touchIdle()

	if tcp.HasFlag(wire.FlagRST) {
		// Accept an in-window RST.
		if wire.SeqGEQ(tcp.Seq, c.rcvNxt-1) {
			if c.session != nil {
				c.session.OnPeerClose()
			}
			c.destroy(false)
		}
		return
	}

	switch c.state {
	case stateSynRcvd:
		if tcp.HasFlag(wire.FlagSYN) && !tcp.HasFlag(wire.FlagACK) {
			// Retransmitted SYN: answer with another SYN-ACK.
			c.sendSynAck()
			return
		}
		if !tcp.HasFlag(wire.FlagACK) || tcp.Ack != c.sndNxt {
			return
		}
		c.establish(tcp)
		// The handshake-completing ACK may carry the request already.
		if len(data) > 0 || tcp.HasFlag(wire.FlagFIN) {
			c.processData(tcp, data)
		}
	default:
		if tcp.HasFlag(wire.FlagACK) {
			c.processAck(tcp)
		}
		if c.state == stateClosed {
			return
		}
		if len(data) > 0 || tcp.HasFlag(wire.FlagFIN) {
			c.processData(tcp, data)
		}
	}
}

func (c *Conn) establish(tcp *wire.TCPHeader) {
	c.state = stateEstablished
	c.sndUna = tcp.Ack
	c.peerWnd = int(tcp.Window)
	iw := c.host.cfg.IW
	if c.iw != nil {
		iw = *c.iw
	}
	c.cwnd = iw.IW(c.effMSS)
	c.note("tcp.established", int64(c.effMSS), int64(c.cwnd))
	c.retx.Cancel()
	c.retries = 0
	c.rto = c.host.cfg.RTO
	c.session = c.app.NewSession(c)
}

// note reports a stack-level annotation on this connection to the
// network observer, if one is attached. These are the server's side of
// the story — the ground truth the flight recorder lines up against
// what the estimator inferred. note must be a static string.
func (c *Conn) note(note string, a, b int64) {
	if o := c.host.net.Observer(); o != nil {
		o.Note(c.host.net.Now(), c.host.addr, c.key.peer, note, a, b)
	}
}

// processAck handles the acknowledgment and window fields.
func (c *Conn) processAck(tcp *wire.TCPHeader) {
	c.peerWnd = int(tcp.Window)
	ack := tcp.Ack
	if wire.SeqGT(ack, c.sndNxt) {
		return // acks data we never sent
	}
	if wire.SeqGT(ack, c.sndUna) {
		acked := int(ack - c.sndUna)
		// FIN occupies the final sequence number; data bytes are the rest.
		dataAcked := acked
		if c.finSent && ack == c.sndNxt {
			c.finAcked = true
			dataAcked--
		}
		if dataAcked > len(c.sndQueue) {
			dataAcked = len(c.sndQueue)
		}
		c.sndQueue = c.sndQueue[dataAcked:]
		c.inflightBytes -= dataAcked
		if c.inflightBytes < 0 {
			c.inflightBytes = 0
		}
		c.sndUna = ack
		// Slow start: grow cwnd by the newly acknowledged bytes.
		c.cwnd += dataAcked
		c.retries = 0
		c.rto = c.host.cfg.RTO
		if c.sndUna == c.sndNxt {
			c.retx.Cancel()
		} else {
			c.retx.Arm(c.rto)
		}
		if c.state == stateLastAck && c.finAcked {
			c.destroy(true)
			return
		}
		if c.state == stateFinWait && c.finAcked {
			// Skip TIME_WAIT: the scan peer is gone after its RST anyway.
			c.destroy(true)
			return
		}
	}
	c.trySend()
}

// processData handles payload and FIN, delivering in-order data only.
func (c *Conn) processData(tcp *wire.TCPHeader, data []byte) {
	seq := tcp.Seq
	if wire.SeqLT(seq, c.rcvNxt) {
		// Old or partially duplicate segment: trim the overlap.
		overlap := int(c.rcvNxt - seq)
		if overlap >= len(data) {
			// Complete duplicate: re-ACK so the peer makes progress.
			if len(data) > 0 {
				c.sendAck()
			}
			if tcp.HasFlag(wire.FlagFIN) && seq+uint32(len(data)) == c.rcvNxt-1 {
				c.sendAck()
			}
			return
		}
		data = data[overlap:]
		seq = c.rcvNxt
	}
	if seq != c.rcvNxt {
		// Out-of-order: drop and send a duplicate ACK. The scanner's
		// requests are single segments, so no reassembly is needed.
		c.sendAck()
		return
	}
	if len(data) > 0 {
		c.rcvNxt += uint32(len(data))
		if c.session != nil {
			c.session.OnData(data)
		}
		if c.state == stateClosed {
			return
		}
		c.sendAck()
	}
	if tcp.HasFlag(wire.FlagFIN) {
		c.rcvNxt++
		c.sendAck()
		if c.session != nil {
			c.session.OnPeerClose()
		}
		if c.state == stateClosed {
			return
		}
		switch c.state {
		case stateEstablished:
			c.state = stateCloseWait
			// Applications in this simulation always close promptly;
			// if one already asked to close, the FIN path below runs.
		case stateFinWait:
			// Simultaneous close; ACK (sent above) suffices.
			if c.finAcked {
				c.destroy(true)
			}
		}
		c.trySend()
	}
}

func (c *Conn) sendAck() {
	var h wire.TCPHeader
	h.Reset()
	h.SrcPort = c.key.localPort
	h.DstPort = c.key.peerPort
	h.Seq = c.sndNxt
	h.Ack = c.rcvNxt
	h.Flags = wire.FlagACK
	h.Window = c.host.cfg.Window
	c.host.stats.SegmentsSent++
	c.host.sendTCP(c.key.peer, &h, nil)
}

// trySend transmits as much queued data as congestion and flow control
// allow, piggybacking the FIN on the last segment when the application
// has closed.
func (c *Conn) trySend() {
	if c.state == stateClosed || c.state == stateSynRcvd {
		return
	}
	sentAny := false
	for {
		avail := len(c.sndQueue) - c.inflightBytes
		if avail <= 0 {
			break
		}
		room := c.cwnd - c.inflightBytes
		if wnd := c.peerWnd - c.inflightBytes; wnd < room {
			room = wnd
		}
		if room <= 0 {
			break
		}
		size := c.effMSS
		if size > avail {
			size = avail
		}
		if size > room {
			size = room
		}
		start := c.inflightBytes
		payload := c.sndQueue[start : start+size]
		seq := c.sndUna + uint32(start)
		last := start+size == len(c.sndQueue)
		fin := last && c.pendingClose && !c.finSent
		c.sendData(seq, payload, fin, last)
		c.inflightBytes += size
		c.sndNxt = c.sndUna + uint32(c.inflightBytes)
		if fin {
			c.finSent = true
			c.sndNxt++
			c.markFinState()
		}
		sentAny = true
	}
	// All queued data is in flight and the application has closed: send
	// a bare FIN, but only if the congestion window has room. A host
	// whose response exactly fills the IW therefore cannot emit its FIN
	// until the peer acknowledges — which is precisely why receiving a
	// FIN tells the scanner the IW was not exhausted.
	if c.pendingClose && !c.finSent && c.inflightBytes == len(c.sndQueue) {
		room := c.cwnd - c.inflightBytes
		if wnd := c.peerWnd - c.inflightBytes; wnd < room {
			room = wnd
		}
		if room <= 0 {
			// The FIN is gated by an exhausted window — the very signal
			// the estimator keys on (§3.3: FIN present means IW not
			// exhausted). Worth a line in the flight recorder.
			c.note("tcp.fin_blocked", int64(c.cwnd-c.inflightBytes), int64(c.peerWnd-c.inflightBytes))
		}
		if room > 0 {
			c.sendData(c.sndNxt, nil, true, true)
			c.finSent = true
			c.sndNxt++
			c.markFinState()
			sentAny = true
		}
	}
	if sentAny && c.sndUna != c.sndNxt {
		c.retx.Arm(c.rto)
	}
}

func (c *Conn) markFinState() {
	switch c.state {
	case stateEstablished:
		c.state = stateFinWait
	case stateCloseWait:
		c.state = stateLastAck
	}
}

func (c *Conn) sendData(seq uint32, payload []byte, fin, push bool) {
	var h wire.TCPHeader
	h.Reset()
	h.SrcPort = c.key.localPort
	h.DstPort = c.key.peerPort
	h.Seq = seq
	h.Ack = c.rcvNxt
	h.Flags = wire.FlagACK
	if fin {
		h.Flags |= wire.FlagFIN
	}
	if push {
		h.Flags |= wire.FlagPSH
	}
	h.Window = c.host.cfg.Window
	c.host.stats.SegmentsSent++
	c.host.sendTCP(c.key.peer, &h, payload)
}

// onRetxTimeout retransmits the first unacknowledged segment (or the
// SYN-ACK / FIN) with exponential backoff.
func (c *Conn) onRetxTimeout() {
	if c.state == stateClosed {
		return
	}
	if c.retries >= c.host.cfg.MaxRetx {
		c.destroy(false)
		return
	}
	c.retries++
	if c.rto < 64*netsim.Second {
		c.rto *= 2 // exponential backoff, capped like real stacks
	}
	c.host.stats.Retransmits++
	switch {
	case c.state == stateSynRcvd:
		c.note("tcp.rto_synack", int64(c.retries), int64(c.rto))
		c.sendSynAck()
	case c.inflightBytes > 0:
		// First unacked data segment.
		size := c.effMSS
		if size > c.inflightBytes {
			size = c.inflightBytes
		}
		c.note("tcp.rto_retransmit", int64(c.retries), int64(c.sndUna-c.iss))
		// The retransmitted first segment carries the FIN only when it
		// is also the last (FIN was piggybacked on it originally).
		fin := c.finSent && size == c.inflightBytes && c.inflightBytes == len(c.sndQueue)
		c.sendData(c.sndUna, c.sndQueue[:size], fin, size == c.inflightBytes)
	case c.finSent && !c.finAcked:
		c.note("tcp.rto_fin", int64(c.retries), int64(c.rto))
		c.sendData(c.sndNxt-1, nil, true, true)
	default:
		// Nothing outstanding; stop the timer chain.
		return
	}
	c.retx.Arm(c.rto)
}

// DebugString renders connection state for tracing.
func (c *Conn) DebugString() string {
	return fmt.Sprintf("%s:%d<-%s state=%s cwnd=%d mss=%d inflight=%d queued=%d",
		c.host.addr, c.key.localPort, c.key.peer, c.state, c.cwnd, c.effMSS,
		c.inflightBytes, len(c.sndQueue))
}
