package tcpstack_test

import (
	"runtime"
	"testing"

	"iwscan/internal/httpsim"
	"iwscan/internal/netsim"
	"iwscan/internal/stats"
	"iwscan/internal/tcpstack"
	"iwscan/internal/tlssim"
	"iwscan/internal/wire"
)

// handClient drives one host by hand, segment by segment, the way the
// scanner does and bench/layers.go's driver repeats: SYN, the request on
// the handshake-completing ACK, the IW burst, RST.
type handClient struct {
	n         *netsim.Network
	src, dst  wire.Addr
	port      uint16
	srcPort   uint16
	synAckSeq uint32
	dataBytes int
}

func (d *handClient) HandlePacket(pkt []byte) {
	var ip wire.IPv4Header
	var tcp wire.TCPHeader
	seg, err := wire.DecodeIPv4Into(&ip, pkt)
	if err != nil {
		return
	}
	data, err := wire.DecodeTCPInto(&tcp, ip.Src, ip.Dst, seg)
	if err != nil || tcp.DstPort != d.srcPort {
		return
	}
	if tcp.HasFlag(wire.FlagSYN | wire.FlagACK) {
		d.synAckSeq = tcp.Seq
	}
	d.dataBytes += len(data)
}

func (d *handClient) send(flags byte, seq, ack uint32, mss uint16, payload []byte) {
	var h wire.TCPHeader
	h.Reset()
	h.SrcPort, h.DstPort, h.Seq, h.Ack, h.Flags, h.Window, h.MSS = d.srcPort, d.port, seq, ack, flags, 65535, mss
	p := d.n.GetPacket()
	p.B = wire.AppendTCPPacket(p.B, &wire.IPv4Header{Protocol: wire.ProtoTCP, Src: d.src, Dst: d.dst, Flags: wire.IPFlagDF}, &h, payload)
	d.n.SendPacket(p)
	d.n.Run(d.n.Now() + 5*netsim.Millisecond)
}

func (d *handClient) exchange(request []byte) {
	const isn = 1000
	d.srcPort++
	d.send(wire.FlagSYN, isn, 0, 64, nil)
	d.send(wire.FlagACK|wire.FlagPSH, isn+1, d.synAckSeq+1, 0, request)
	d.send(wire.FlagRST, isn+1+uint32(len(request)), 0, 0, nil)
}

// TestExchangeAllocBudget pins what one connection costs a host that is
// already up and has answered before: a stated number of allocations,
// and nothing in proportion to the response. The connection takes the
// host's own Conn and the server's own session, both free again since
// the previous connection closed; its retransmission, idle and flush
// timers live inside the Conn and re-arm for free; the TLS session
// decodes each hello into the arrays of its last. The response was
// rendered as far as the first connection sent it; every later one sends
// from the same memo, which Conn.Send reads without a copy.
func TestExchangeAllocBudget(t *testing.T) {
	const pageLen = 20000 // the response both listeners give, give or take headers
	for _, tc := range []struct {
		name        string
		allocBudget float64 // measured 0 and 0, plus one of slack: MemStats counts the whole process
		port        uint16
		app         tcpstack.App
		request     []byte
	}{
		{"http", 1, 80,
			httpsim.NewServer(httpsim.ServerConfig{PageLen: pageLen, Seed: 1}),
			httpsim.BuildRequest("/", "198.51.100.10", "Connection", "close", "Accept", "*/*")},
		{"tls", 1, 443,
			tlssim.NewServer(tlssim.ServerConfig{ChainLen: pageLen, OCSPStaple: true, Seed: 1}),
			tlssim.BuildClientHello(stats.NewRNG(1), "")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := netsim.New(1)
			n.SetPath(netsim.PathParams{Delay: netsim.Millisecond})
			d := &handClient{n: n, src: wire.MustParseAddr("192.0.2.1"), dst: wire.MustParseAddr("198.51.100.10"), port: tc.port, srcPort: 20000}
			n.Register(d.src, d)
			host := tcpstack.NewHost(n, d.dst, tcpstack.Config{IW: tcpstack.IWPolicy{Segments: 10}})
			host.Listen(tc.port, tc.app)

			exchange := func() { d.exchange(tc.request) }
			for i := 0; i < 50; i++ { // render the memo, fill the packet and event free lists
				exchange()
			}
			if d.dataBytes != 50*10*64 {
				t.Fatalf("warm-up received %d response bytes, want 50 bursts of 10 segments of 64", d.dataBytes)
			}

			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				exchange()
			}
			runtime.ReadMemStats(&after)
			allocs := float64(after.Mallocs-before.Mallocs) / runs
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
			t.Logf("%.1f allocs, %.0f bytes per exchange", allocs, bytes)
			if allocs > tc.allocBudget {
				t.Errorf("one exchange cost %.1f allocs, budget %.0f", allocs, tc.allocBudget)
			}
			if bytes >= pageLen/10 {
				t.Errorf("one exchange allocated %.0f bytes: a tenth of the %d-byte response or more, so something still scales with it", bytes, pageLen)
			}
			if host.ConnCount() != 0 {
				t.Errorf("%d connections left open", host.ConnCount())
			}
		})
	}
}
