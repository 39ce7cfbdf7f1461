// Package icmpsim implements the RFC 1191 path-MTU discovery probe the
// paper's footnote 1 describes: an ICMP echo sweep that finds the
// largest DF packet a path carries, from which typical MSS values are
// derived (the paper found 99% of hosts support an MSS of 1336 B and
// 80% support 1436 B).
package icmpsim

import (
	"iwscan/internal/netsim"
	"iwscan/internal/wire"
)

// PlateauTable is RFC 1191's table of common MTU plateaus, descending.
var PlateauTable = []int{65535, 32000, 17914, 8166, 4352, 2002, 1492, 1500, 1006, 508, 296, 68}

// Result is one path's discovered MTU.
type Result struct {
	Addr    wire.Addr
	MTU     int  // discovered path MTU, 0 when the host never answered
	MSS     int  // MTU minus 40 bytes of IP+TCP headers
	Replies int  // echo replies received
	Probes  int  // echo requests sent
	OK      bool // discovery converged
}

// Prober walks paths down the plateau table: send an echo request of
// the current candidate size with DF set; a "fragmentation needed" error
// lowers the candidate (using the router-supplied next-hop MTU when
// present), an echo reply confirms it.
type Prober struct {
	net     *netsim.Network
	addr    wire.Addr
	timeout netsim.Time
	nextID  uint16
	active  map[uint16]*probe
}

type probe struct {
	p         *Prober
	target    wire.Addr
	candidate int
	result    Result
	id        uint16 // echo ID, the key in Prober.active
	timer     netsim.Timer
	done      func(Result)
}

// NewProber creates a prober node at addr.
func NewProber(n *netsim.Network, addr wire.Addr) *Prober {
	p := &Prober{
		net:     n,
		addr:    addr,
		timeout: 2 * netsim.Second,
		active:  make(map[uint16]*probe),
	}
	n.Register(addr, p)
	return p
}

// Discover starts path-MTU discovery toward target, beginning at start
// (use 1500 for a typical first hop). done is invoked exactly once.
func (p *Prober) Discover(target wire.Addr, start int, done func(Result)) {
	p.nextID++
	pr := &probe{
		p:         p,
		id:        p.nextID,
		target:    target,
		candidate: start,
		result:    Result{Addr: target},
		done:      done,
	}
	pr.timer.Bind(p.net, func(a any) { a.(*probe).finish(false) }, pr)
	p.active[pr.id] = pr
	pr.send()
}

func (pr *probe) send() {
	pr.result.Probes++
	// Echo payload pads the IP packet to exactly the candidate size.
	payload := pr.candidate - wire.IPv4HeaderLen - wire.ICMPHeaderLen
	if payload < 0 {
		payload = 0
	}
	msg := wire.EncodeICMP(nil, &wire.ICMPHeader{
		Type: wire.ICMPEchoRequest,
		ID:   pr.id,
		Seq:  uint16(pr.result.Probes),
		Body: make([]byte, payload),
	})
	hdr := wire.IPv4Header{
		Protocol: wire.ProtoICMP,
		Src:      pr.p.addr,
		Dst:      pr.target,
		Flags:    wire.IPFlagDF,
	}
	p := pr.p.net.GetPacket()
	p.B = wire.EncodeIPv4(p.B, &hdr, msg)
	pr.p.net.SendPacket(p)
	pr.timer.Arm(pr.p.timeout)
}

func (pr *probe) finish(ok bool) {
	pr.timer.Cancel()
	delete(pr.p.active, pr.id)
	if ok {
		pr.result.OK = true
		pr.result.MTU = pr.candidate
		pr.result.MSS = pr.candidate - 40
	}
	pr.done(pr.result)
}

// HandlePacket implements netsim.Node.
func (p *Prober) HandlePacket(pkt []byte) {
	var ip wire.IPv4Header
	payload, err := wire.DecodeIPv4Into(&ip, pkt)
	if err != nil || ip.Protocol != wire.ProtoICMP {
		return
	}
	var msg wire.ICMPHeader
	if err := wire.DecodeICMPInto(&msg, payload); err != nil {
		return
	}
	switch msg.Type {
	case wire.ICMPEchoReply:
		pr := p.active[msg.ID]
		if pr == nil || ip.Src != pr.target {
			return
		}
		pr.result.Replies++
		pr.finish(true)
	case wire.ICMPDestUnreach:
		if msg.Code != wire.ICMPCodeFragNeeded {
			return
		}
		// The embedded original datagram identifies the probe.
		id, target, ok := embeddedEchoID(msg.Body)
		if !ok {
			return
		}
		pr := p.active[id]
		if pr == nil || pr.target != target {
			return
		}
		next := int(msg.NextHopMTU)
		if next <= 0 || next >= pr.candidate {
			// No usable hint (pre-RFC1191 router): walk the plateaus.
			next = nextPlateauBelow(pr.candidate)
		}
		if next < 68 {
			pr.finish(false)
			return
		}
		pr.candidate = next
		pr.send()
	}
}

// embeddedEchoID extracts the echo ID and destination from the original
// datagram embedded in an ICMP error body. The body holds only the IP
// header plus 8 payload bytes (RFC 792), so it cannot be parsed with the
// full validating decoder — the header fields are read directly.
func embeddedEchoID(body []byte) (uint16, wire.Addr, bool) {
	if len(body) < wire.IPv4HeaderLen || body[0]>>4 != 4 {
		return 0, 0, false
	}
	ihl := int(body[0]&0xf) * 4
	if ihl < wire.IPv4HeaderLen || len(body) < ihl+8 {
		return 0, 0, false
	}
	if body[9] != wire.ProtoICMP {
		return 0, 0, false
	}
	dst := wire.Addr(uint32(body[16])<<24 | uint32(body[17])<<16 | uint32(body[18])<<8 | uint32(body[19]))
	icmp := body[ihl:]
	if icmp[0] != wire.ICMPEchoRequest {
		return 0, 0, false
	}
	id := uint16(icmp[4])<<8 | uint16(icmp[5])
	return id, dst, true
}

// nextPlateauBelow returns the largest plateau strictly below mtu.
func nextPlateauBelow(mtu int) int {
	best := 0
	for _, p := range PlateauTable {
		if p < mtu && p > best {
			best = p
		}
	}
	return best
}
