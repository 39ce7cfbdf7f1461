package httpsim

import (
	"bytes"
	"encoding/binary"
	"testing"

	"iwscan/internal/netsim"
	"iwscan/internal/stats"
	"iwscan/internal/tcpstack"
	"iwscan/internal/wire"
)

// checkPrefixes asks a fresh server's page for the prefixes ending at
// ends, in that order, and holds each to the reference response and the
// memo to the longest prefix asked for so far plus one filler word.
func checkPrefixes(t *testing.T, seed uint64, n int, ends []int) {
	t.Helper()
	want := BuildResponse(200, "OK", Page(seed, n))
	p := NewServer(ServerConfig{PageLen: n, Seed: seed}).pageSource()
	if p.Len() != len(want) {
		t.Fatalf("page %d: Len %d, reference %d bytes", n, p.Len(), len(want))
	}
	eager := len(p.b) // the head and pageHeader
	longest := 0
	for _, end := range ends {
		longest = max(longest, end)
		if got := p.Prefix(end); !bytes.Equal(got, want[:end]) {
			t.Fatalf("page %d seed %d: Prefix(%d) differs from the reference\n got %q\nwant %q", n, seed, end, got, want[:end])
		}
		if len(p.b) > max(eager, longest+maxWordLen) {
			t.Fatalf("page %d: after Prefix(%d) the memo holds %d bytes, over a word past the longest prefix asked for (%d)", n, end, len(p.b), longest)
		}
	}
}

// shuffled returns 1..total in an order drawn from rng.
func shuffled(rng *stats.RNG, total int) []int {
	ends := make([]int, total)
	for i := range ends {
		ends[i] = i + 1
	}
	for i := total - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ends[i], ends[j] = ends[j], ends[i]
	}
	return ends
}

// TestLazyPageMatchesReference: every prefix of the 200 page the server
// renders on demand, asked for in arbitrary order, is that of
// BuildResponse(200, "OK", Page(seed, n)): with no body, around the
// bare header and footer, with the filler ending exactly on a word or
// right after its space, and at 64 kB.
func TestLazyPageMatchesReference(t *testing.T) {
	const seed = 11
	bare := len(pageHeader) + len(pageFooter)
	sizes := []int{0, 1, bare - 1, bare, bare + 1, bare + 2, 5000}
	// Filler lengths at which the last word is cut at its end, or ends
	// with its space.
	full := filler(seed, 200)
	for i, cuts := 0, 0; i < len(full) && cuts < 3; i++ {
		if full[i] == ' ' {
			sizes = append(sizes, bare+i, bare+i+1)
			cuts++
		}
	}
	rng := stats.NewRNG(3)
	for _, n := range sizes {
		total := len(BuildResponse(200, "OK", Page(seed, n)))
		checkPrefixes(t, seed, n, shuffled(rng, total))
	}
	// 64 kB: a sample of the ends, in arbitrary order, then all of it.
	const big = 64 << 10
	ends := shuffled(rng, len(BuildResponse(200, "OK", Page(seed, big))))
	checkPrefixes(t, seed, big, append(ends[:3000:3000], ends[len(ends)-1]))
}

// FuzzLazyPayload: whatever the page size, seed and order of prefixes
// asked for, the page rendered on demand matches the reference.
func FuzzLazyPayload(f *testing.F) {
	f.Add(uint64(1), uint16(5000), []byte{0, 10, 3, 0, 0, 200})
	f.Add(uint64(2), uint16(62), []byte{0, 1, 0, 200})
	f.Add(uint64(3), uint16(61), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, steps []byte) {
		total := len(BuildResponse(200, "OK", Page(seed, int(n))))
		var ends []int
		for ; len(steps) >= 2; steps = steps[2:] {
			ends = append(ends, 1+int(binary.BigEndian.Uint16(steps))%total)
		}
		checkPrefixes(t, seed, int(n), append(ends, total))
	})
}

// rawProbe drives one connection by hand the way the scanner does: SYN
// at MSS 64, the request on the handshake-completing ACK, the IW burst
// until the first retransmission, a verification ACK of everything with
// a two-segment window, RST. It records the highest response offset
// received and the bytes below it.
type rawProbe struct {
	n        *netsim.Network
	port     uint16
	iss      uint32
	got      []byte
	received int
}

func (r *rawProbe) HandlePacket(pkt []byte) {
	var ip wire.IPv4Header
	var tcp wire.TCPHeader
	seg, err := wire.DecodeIPv4Into(&ip, pkt)
	if err != nil {
		return
	}
	data, err := wire.DecodeTCPInto(&tcp, ip.Src, ip.Dst, seg)
	if err != nil || tcp.DstPort != r.port {
		return
	}
	if tcp.HasFlag(wire.FlagSYN) {
		r.iss = tcp.Seq
		return
	}
	if off := int(tcp.Seq - r.iss - 1); len(data) > 0 {
		if end := off + len(data); end > len(r.got) {
			r.got = append(r.got, make([]byte, end-len(r.got))...)
		}
		copy(r.got[off:], data)
		r.received = max(r.received, off+len(data))
	}
}

func (r *rawProbe) send(flags byte, seq, ack uint32, win uint16, payload []byte) {
	var h wire.TCPHeader
	h.Reset()
	h.SrcPort, h.DstPort, h.Seq, h.Ack, h.Flags, h.Window = r.port, 80, seq, ack, flags, win
	if flags == wire.FlagSYN {
		h.MSS = 64
	}
	p := r.n.GetPacket()
	p.B = wire.AppendTCPPacket(p.B, &wire.IPv4Header{Protocol: wire.ProtoTCP, Src: testClient, Dst: testServer}, &h, payload)
	r.n.SendPacket(p)
}

func (r *rawProbe) probe(request []byte) {
	const isn = 5000
	r.port++
	r.got, r.received = r.got[:0], 0
	r.send(wire.FlagSYN, isn, 0, 65535, nil)
	r.n.Run(r.n.Now() + 10*netsim.Millisecond)
	r.send(wire.FlagACK|wire.FlagPSH, isn+1, r.iss+1, 65535, request)
	r.n.Run(r.n.Now() + 1500*netsim.Millisecond) // the burst, then its retransmission
	r.send(wire.FlagACK, isn+1+uint32(len(request)), r.iss+1+uint32(r.received), 2*64, nil)
	r.n.Run(r.n.Now() + 10*netsim.Millisecond)
	r.send(wire.FlagRST, isn+1+uint32(len(request)), 0, 0, nil)
	r.n.Run(r.n.Now() + 10*netsim.Millisecond)
}

// TestPageRenderedAsFarAsSent: probed the way the scanner probes, at IW
// 10 and MSS 64, a 20 kB page is rendered no further than one filler
// word past the last byte sent — the IW plus the two segments the
// verification ACK releases — and a second probe renders nothing more.
func TestPageRenderedAsFarAsSent(t *testing.T) {
	const pageLen = 20000
	n := netsim.New(1)
	n.SetPath(netsim.PathParams{Delay: netsim.Millisecond})
	r := &rawProbe{n: n, port: 20000}
	n.Register(testClient, r)
	host := tcpstack.NewHost(n, testServer, tcpstack.Config{IW: tcpstack.IWPolicy{Segments: 10}})
	srv := NewServer(ServerConfig{PageLen: pageLen, Seed: 8})
	host.Listen(80, srv)
	want := BuildResponse(200, "OK", Page(8, pageLen))

	for i := 0; i < 2; i++ {
		r.probe(BuildRequest("/", "198.51.100.10", "Connection", "close"))
		if r.received != 12*64 || !bytes.Equal(r.got, want[:r.received]) {
			t.Fatalf("probe %d received %d bytes (want the IW and two more segments, 768), equal to the reference: %v", i+1, r.received, bytes.Equal(r.got, want[:r.received]))
		}
		if rendered := len(srv.page.b); rendered < r.received || rendered > r.received+maxWordLen {
			t.Fatalf("probe %d: %d bytes sent, %d rendered; want at most one filler word (%d) more", i+1, r.received, rendered, maxWordLen)
		}
	}
	if host.ConnCount() != 0 {
		t.Fatalf("%d connections left open", host.ConnCount())
	}
}
