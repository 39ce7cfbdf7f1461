package tcpstack

import (
	"iwscan/internal/netsim"
	"iwscan/internal/stats"
	"iwscan/internal/wire"
)

// ClientConfig tunes a client endpoint.
type ClientConfig struct {
	MSS        uint16      // MSS announced in the SYN (default 1460)
	Window     uint16      // receive window to advertise (default 65535)
	SynTimeout netsim.Time // handshake timeout (default 3 s)
	SynRetries int         // SYN retransmissions before giving up (default 2)
	// DelayedACK, when set, acknowledges every second segment (or after
	// the delayed-ACK timer), as real receivers do; otherwise every
	// segment is ACKed immediately.
	DelayedACK      bool
	DelayedACKTimer netsim.Time // default 40 ms
}

func (c *ClientConfig) withDefaults() ClientConfig {
	out := *c
	if out.MSS == 0 {
		out.MSS = 1460
	}
	if out.Window == 0 {
		out.Window = 65535
	}
	if out.SynTimeout == 0 {
		out.SynTimeout = 3 * netsim.Second
	}
	if out.SynRetries == 0 {
		out.SynRetries = 2
	}
	if out.DelayedACKTimer == 0 {
		out.DelayedACKTimer = 40 * netsim.Millisecond
	}
	return out
}

// Client is a normal TCP client endpoint: unlike the scanner's probe
// connections it acknowledges data as it arrives, so the remote
// congestion window grows through slow start — which is what makes it
// suitable for measuring how the server's IW affects flow completion
// times (the paper's motivating metric).
type Client struct {
	net   *netsim.Network
	addr  wire.Addr
	cfg   ClientConfig
	rng   *stats.RNG
	conns map[uint16]*ClientConn
	next  uint16
	ipid  uint16
}

// NewClient creates a client endpoint at addr and registers it.
func NewClient(n *netsim.Network, addr wire.Addr, cfg ClientConfig) *Client {
	c := &Client{
		net:   n,
		addr:  addr,
		cfg:   cfg.withDefaults(),
		rng:   stats.NewRNG(uint64(addr) ^ 0xc11e47),
		conns: make(map[uint16]*ClientConn),
		next:  30000,
	}
	n.Register(addr, c)
	return c
}

// HandlePacket implements netsim.Node.
func (c *Client) HandlePacket(pkt []byte) {
	var ip wire.IPv4Header
	payload, err := wire.DecodeIPv4Into(&ip, pkt)
	if err != nil || ip.Dst != c.addr || ip.Protocol != wire.ProtoTCP {
		return
	}
	var tcp wire.TCPHeader
	data, err := wire.DecodeTCPInto(&tcp, ip.Src, ip.Dst, payload)
	if err != nil {
		return
	}
	conn := c.conns[tcp.DstPort]
	if conn == nil || conn.peer != ip.Src || conn.peerPort != tcp.SrcPort {
		return
	}
	conn.handleSegment(&tcp, data)
}

func (c *Client) send(dst wire.Addr, h *wire.TCPHeader, payload []byte) {
	c.ipid++
	hdr := wire.IPv4Header{
		Protocol: wire.ProtoTCP, Src: c.addr, Dst: dst, ID: c.ipid, Flags: wire.IPFlagDF,
	}
	p := c.net.GetPacket()
	p.B = wire.AppendTCPPacket(p.B, &hdr, h, payload)
	c.net.SendPacket(p)
}

// ClientEvents receives connection lifecycle callbacks.
type ClientEvents struct {
	// OnConnect fires when the handshake completes.
	OnConnect func(conn *ClientConn)
	// OnData fires for each chunk of in-order payload.
	OnData func(conn *ClientConn, data []byte)
	// OnClose fires once, when the connection ends (FIN, RST or
	// handshake failure). complete is true for a graceful FIN.
	OnClose func(conn *ClientConn, complete bool)
}

// ClientConn is one client connection.
type ClientConn struct {
	client    *Client
	peer      wire.Addr
	peerPort  uint16
	localPort uint16
	events    ClientEvents

	state       connState // reusing the server-side state names
	isn         uint32
	sndNxt      uint32
	rcvNxt      uint32
	established bool

	pendingData []byte // request sent with the handshake ACK
	bytesRcvd   int64
	segsRcvd    int64
	unackedSegs int
	ackTimer    netsim.Timer // the delayed ACK
	synTimer    netsim.Timer // SYN retransmission
	synTries    int
	closed      bool
	finSent     bool
}

// Connect opens a connection to peer:port, sending request data with
// the handshake-completing ACK (as HTTP clients effectively do).
func (c *Client) Connect(peer wire.Addr, port uint16, request []byte, events ClientEvents) *ClientConn {
	conn := &ClientConn{
		client:      c,
		peer:        peer,
		peerPort:    port,
		localPort:   c.allocPort(),
		events:      events,
		isn:         c.rng.Uint32(),
		pendingData: append([]byte(nil), request...),
	}
	conn.sndNxt = conn.isn + 1
	conn.ackTimer.Bind(c.net, func(a any) { a.(*ClientConn).sendAck() }, conn)
	conn.synTimer.Bind(c.net, func(a any) { a.(*ClientConn).onSynTimeout() }, conn)
	c.conns[conn.localPort] = conn
	conn.sendSYN()
	return conn
}

func (c *Client) allocPort() uint16 {
	for {
		p := c.next
		c.next++
		if c.next >= 60000 {
			c.next = 30000
		}
		if _, busy := c.conns[p]; !busy {
			return p
		}
	}
}

// BytesReceived returns the total payload bytes delivered in order.
func (cc *ClientConn) BytesReceived() int64 { return cc.bytesRcvd }

// SegmentsReceived returns the number of data segments received.
func (cc *ClientConn) SegmentsReceived() int64 { return cc.segsRcvd }

func (cc *ClientConn) sendSYN() {
	var h wire.TCPHeader
	h.Reset()
	h.SrcPort = cc.localPort
	h.DstPort = cc.peerPort
	h.Seq = cc.isn
	h.Flags = wire.FlagSYN
	h.Window = cc.client.cfg.Window
	h.MSS = cc.client.cfg.MSS
	cc.client.send(cc.peer, &h, nil)
	cc.synTimer.Arm(cc.client.cfg.SynTimeout)
}

func (cc *ClientConn) onSynTimeout() {
	cc.synTries++
	if cc.synTries > cc.client.cfg.SynRetries {
		cc.teardown(false)
		return
	}
	cc.sendSYN()
}

func (cc *ClientConn) handleSegment(tcp *wire.TCPHeader, data []byte) {
	if cc.closed {
		return
	}
	if tcp.HasFlag(wire.FlagRST) {
		cc.teardown(false)
		return
	}
	if !cc.established {
		if !tcp.HasFlag(wire.FlagSYN|wire.FlagACK) || tcp.Ack != cc.isn+1 {
			return
		}
		cc.established = true
		cc.synTimer.Cancel()
		cc.rcvNxt = tcp.Seq + 1
		// Handshake ACK carries the request.
		cc.sendSegment(cc.pendingData, wire.FlagACK|wire.FlagPSH)
		cc.sndNxt += uint32(len(cc.pendingData))
		cc.pendingData = nil
		if cc.events.OnConnect != nil {
			cc.events.OnConnect(cc)
		}
		return
	}

	fin := tcp.HasFlag(wire.FlagFIN)
	if len(data) > 0 {
		if tcp.Seq != cc.rcvNxt {
			// Out of order or duplicate: re-ACK immediately to trigger
			// fast retransmit at the sender.
			cc.sendAck()
			return
		}
		cc.rcvNxt += uint32(len(data))
		cc.bytesRcvd += int64(len(data))
		cc.segsRcvd++
		if cc.events.OnData != nil {
			cc.events.OnData(cc, data)
		}
		if cc.closed {
			return
		}
		cc.scheduleAck(fin)
	}
	if fin {
		cc.rcvNxt++
		cc.sendAck()
		// Close our side too.
		if !cc.finSent {
			cc.sendSegment(nil, wire.FlagACK|wire.FlagFIN)
			cc.finSent = true
			cc.sndNxt++
		}
		cc.teardown(true)
	}
}

// scheduleAck implements immediate or delayed acknowledgment.
func (cc *ClientConn) scheduleAck(forceNow bool) {
	if !cc.client.cfg.DelayedACK || forceNow {
		cc.sendAck()
		return
	}
	cc.unackedSegs++
	if cc.unackedSegs >= 2 {
		cc.sendAck()
		return
	}
	if !cc.ackTimer.Pending() {
		cc.ackTimer.Arm(cc.client.cfg.DelayedACKTimer)
	}
}

func (cc *ClientConn) sendAck() {
	cc.unackedSegs = 0
	cc.ackTimer.Cancel()
	cc.sendSegment(nil, wire.FlagACK)
}

func (cc *ClientConn) sendSegment(payload []byte, flags byte) {
	var h wire.TCPHeader
	h.Reset()
	h.SrcPort = cc.localPort
	h.DstPort = cc.peerPort
	h.Seq = cc.sndNxt
	h.Ack = cc.rcvNxt
	h.Flags = flags
	h.Window = cc.client.cfg.Window
	cc.client.send(cc.peer, &h, payload)
}

// Abort resets the connection.
func (cc *ClientConn) Abort() {
	if cc.closed {
		return
	}
	var h wire.TCPHeader
	h.Reset()
	h.SrcPort = cc.localPort
	h.DstPort = cc.peerPort
	h.Seq = cc.sndNxt
	h.Ack = cc.rcvNxt
	h.Flags = wire.FlagRST | wire.FlagACK
	cc.client.send(cc.peer, &h, nil)
	cc.teardown(false)
}

func (cc *ClientConn) teardown(complete bool) {
	if cc.closed {
		return
	}
	cc.closed = true
	cc.synTimer.Cancel()
	cc.ackTimer.Cancel()
	delete(cc.client.conns, cc.localPort)
	if cc.events.OnClose != nil {
		cc.events.OnClose(cc, complete)
	}
}
