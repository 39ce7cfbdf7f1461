package core

import (
	"bytes"
	"reflect"
	"testing"

	"iwscan/internal/httpsim"
	"iwscan/internal/netsim"
	"iwscan/internal/tcpstack"
	"iwscan/internal/tlssim"
	"iwscan/internal/wire"
)

// recycleHost is one hand-made host of the recycling table: how to
// build it on a network, and the impairment its path adds, if any.
type recycleHost struct {
	name   string
	addr   wire.Addr
	tc     TargetConfig
	listen func(h *tcpstack.Host)
	filter func(addr wire.Addr) netsim.Filter // nil: a clean path
}

// dropFirstSegment returns a filter that drops the data segment at
// stream offset 0 of every connection from addr: always, which leaves a
// hole at the head's start, or only its first copy, so that the
// retransmission fills the hole out of order.
func dropFirstSegment(always bool) func(addr wire.Addr) netsim.Filter {
	return func(addr wire.Addr) netsim.Filter {
		irs := map[uint16]uint32{}   // server ISN by scanner port
		dropped := map[uint16]bool{} // first copy dropped, by scanner port
		return func(_ netsim.Time, pkt []byte) netsim.Verdict {
			ip, payload, err := wire.DecodeIPv4(pkt)
			if err != nil || ip.Src != addr || ip.Protocol != wire.ProtoTCP {
				return netsim.VerdictPass
			}
			tcp, data, err := wire.DecodeTCP(ip.Src, ip.Dst, payload)
			if err != nil {
				return netsim.VerdictPass
			}
			if tcp.HasFlag(wire.FlagSYN) {
				irs[tcp.DstPort] = tcp.Seq
				return netsim.VerdictPass
			}
			if len(data) == 0 || tcp.Seq != irs[tcp.DstPort]+1 || (!always && dropped[tcp.DstPort]) {
				return netsim.VerdictPass
			}
			dropped[tcp.DstPort] = true
			return netsim.VerdictDrop
		}
	}
}

func recycleHosts() []recycleHost {
	addr := func(i int) wire.Addr { return wire.Addr(uint32(wire.MustParseAddr("198.51.100.0")) + uint32(i)) }
	page := func(n int) func(*tcpstack.Host) {
		return func(h *tcpstack.Host) {
			h.Listen(80, httpsim.NewServer(httpsim.ServerConfig{Root: httpsim.BehaviorPage, PageLen: n}))
		}
	}
	http := TargetConfig{Strategy: StrategyHTTP}
	return []recycleHost{
		{name: "iw-limited", addr: addr(1), tc: http, listen: page(8000)},
		{name: "redirect", addr: addr(2), tc: http, listen: func(h *tcpstack.Host) {
			h.Listen(80, httpsim.NewServer(httpsim.ServerConfig{
				Root: httpsim.BehaviorRedirect, RedirectHost: "www.example-host.org",
				RedirectPath: "/home/index.html", PageLen: 8000,
			}))
		}},
		// Right behind the redirect: a hole at the head's start that read
		// the redirect's stale bytes would follow its Location.
		{name: "head-hole", addr: addr(3), tc: http, listen: page(8000), filter: dropFirstSegment(true)},
		{name: "echo-404-bloat", addr: addr(4), tc: http, listen: func(h *tcpstack.Host) {
			h.Listen(80, httpsim.NewServer(httpsim.ServerConfig{Root: httpsim.BehaviorNotFound, EchoURI: true}))
		}},
		{name: "few-data-fin", addr: addr(5), tc: http, listen: page(400)},
		{name: "reset", addr: addr(6), tc: http, listen: func(h *tcpstack.Host) {
			h.Listen(80, httpsim.NewServer(httpsim.ServerConfig{Root: httpsim.BehaviorReset}))
		}},
		{name: "silent", addr: addr(7), tc: http, listen: func(h *tcpstack.Host) {
			h.Listen(80, httpsim.NewServer(httpsim.ServerConfig{Root: httpsim.BehaviorEmpty}))
		}},
		{name: "reordered", addr: addr(8), tc: http, listen: page(8000), filter: dropFirstSegment(false)},
		{name: "tls", addr: addr(9), tc: TargetConfig{Strategy: StrategyTLS}, listen: func(h *tcpstack.Host) {
			h.Listen(443, tlssim.NewServer(tlssim.ServerConfig{Behavior: tlssim.BehaviorServeChain, ChainLen: 5000, Seed: 9}))
		}},
		{name: "syn-open", addr: addr(10), tc: TargetConfig{Strategy: StrategySYN}, listen: page(100)},
		{name: "refused", addr: addr(11), tc: http, listen: func(*tcpstack.Host) {}},
		{name: "no-host", addr: addr(12), tc: http},
	}
}

// recycleNet builds a network holding the given hosts and a scanner,
// and records the TCP payloads the scanner sends to each host.
func recycleNet(hosts []recycleHost) (*netsim.Network, *Scanner, map[wire.Addr][][]byte) {
	n := netsim.New(5)
	n.SetPath(netsim.PathParams{Delay: 10 * netsim.Millisecond})
	sent := map[wire.Addr][][]byte{}
	n.AddFilter(func(_ netsim.Time, pkt []byte) netsim.Verdict {
		ip, payload, err := wire.DecodeIPv4(pkt)
		if err != nil || ip.Src != scanAddr {
			return netsim.VerdictPass
		}
		if _, data, err := wire.DecodeTCP(ip.Src, ip.Dst, payload); err == nil && len(data) > 0 {
			data = bytes.Clone(data)
			if data[0] == tlssim.RecordHandshake {
				// A ClientHello's random is the scanner's RNG stream, which
				// depends on what the scanner probed before.
				clear(data[11:43])
			}
			sent[ip.Dst] = append(sent[ip.Dst], data)
		}
		return netsim.VerdictPass
	})
	for _, h := range hosts {
		if h.listen != nil {
			h.listen(tcpstack.NewHost(n, h.addr, linuxIW(10)))
		}
		if h.filter != nil {
			n.AddFilter(h.filter(h.addr))
		}
	}
	return n, NewScanner(n, scanAddr, Config{Seed: 42}), sent
}

// TestRecycledStateIsInvisible probes every host of the table back to
// back, twice, on one warm Scanner, so each target runs on the state the
// one before it left. Each must get the result, and send the requests,
// that it gets from a Scanner of its own.
func TestRecycledStateIsInvisible(t *testing.T) {
	hosts := recycleHosts()
	fresh := map[wire.Addr]*TargetResult{}
	freshSent := map[wire.Addr][][]byte{}
	for _, h := range hosts {
		n, sc, sent := recycleNet([]recycleHost{h})
		sc.ProbeTarget(h.addr, h.tc, func(tr *TargetResult) { fresh[h.addr] = tr })
		n.RunUntilIdle()
		freshSent[h.addr] = sent[h.addr]
	}

	n, sc, sent := recycleNet(hosts)
	var warm []*TargetResult
	order := append(hosts[:len(hosts):len(hosts)], hosts...)
	for _, h := range order {
		sc.ProbeTarget(h.addr, h.tc, func(tr *TargetResult) { warm = append(warm, tr) })
		n.RunUntilIdle()
	}
	if len(warm) != len(order) {
		t.Fatalf("%d of %d targets reported", len(warm), len(order))
	}
	if len(sc.free) != 1 {
		t.Fatalf("back-to-back targets left %d states, want the one they all shared", len(sc.free))
	}
	for i, tr := range warm {
		h := order[i]
		if !reflect.DeepEqual(tr, fresh[h.addr]) {
			t.Errorf("%s (pass %d): warm %+v\nfresh %+v", h.name, i/len(hosts)+1, tr, fresh[h.addr])
		}
	}
	for _, h := range hosts {
		want := append(freshSent[h.addr], freshSent[h.addr]...) // probed twice
		if !reflect.DeepEqual(sent[h.addr], want) {
			t.Errorf("%s: warm scanner sent %d payloads %q,\nfresh twice %d %q", h.name,
				len(sent[h.addr]), sent[h.addr], len(want), want)
		}
	}

	// The table covers what it claims to.
	byName := map[string]*TargetResult{}
	for _, h := range hosts {
		byName[h.name] = fresh[h.addr]
	}
	for name, want := range map[string]Outcome{
		"iw-limited": OutcomeSuccess, "redirect": OutcomeSuccess, "echo-404-bloat": OutcomeSuccess,
		"few-data-fin": OutcomeFewData, "reset": OutcomeError, "silent": OutcomeNoData,
		"reordered": OutcomeSuccess, "head-hole": OutcomeError, "tls": OutcomeSuccess,
		"syn-open": OutcomeSuccess, "refused": OutcomeUnreachable, "no-host": OutcomeUnreachable,
	} {
		if got := byName[name].Outcome; got != want {
			t.Errorf("%s: outcome %s, want %s", name, got, want)
		}
	}
	if p := byName["reordered"].PerMSS[0].Probes[0]; !p.Reorder || p.Gap {
		t.Errorf("reordered: first probe %+v, want a filled hole", p)
	}
	if p := byName["head-hole"].PerMSS[0].Probes[0]; !p.Gap {
		t.Errorf("head-hole: first probe %+v, want a hole left", p)
	}
}

// TestRecycledHeadHoleReadsZero: a hole in the head of the GET /
// connection reads as zeros even when the buffer held the previous
// target's 301 there, so the follow-up bloats the URI instead of
// chasing a Location the target never sent.
func TestRecycledHeadHoleReadsZero(t *testing.T) {
	hosts := recycleHosts()
	redirect, hole := hosts[1], hosts[2]
	n, sc, sent := recycleNet([]recycleHost{redirect, hole})
	tc := TargetConfig{Strategy: StrategyHTTP, MSSList: []int{64}, Repeats: 1}
	sc.ProbeTarget(redirect.addr, tc, func(*TargetResult) {})
	n.RunUntilIdle()
	tp := sc.free[0]
	if !bytes.HasPrefix(tp.head, []byte("HTTP/1.1 301")) {
		t.Fatalf("the redirect left head %q", tp.head)
	}
	var got *TargetResult
	sc.ProbeTarget(hole.addr, tc, func(tr *TargetResult) { got = tr })
	n.RunUntilIdle()
	if got == nil || len(sc.free) != 1 || sc.free[0] != tp {
		t.Fatal("the second target did not report on the first one's state")
	}
	if len(tp.head) < 64 || !bytes.Equal(tp.head[:64], make([]byte, 64)) {
		t.Fatalf("head hole [0, 64) = %q, want zeros", tp.head[:min(64, len(tp.head))])
	}
	reqs := sent[hole.addr]
	bloat := []byte("GET " + httpsim.BloatedPath(1200) + " ")
	if len(reqs) != 2 || !bytes.HasPrefix(reqs[0], []byte("GET / ")) || !bytes.HasPrefix(reqs[1], bloat) {
		t.Fatalf("requests to the holed host = %q, want GET / then the bloated URI", reqs)
	}
}

// TestLateDuplicateAfterRecycleIgnored: a copy of the SYN-ACK that
// opened a finished probe arrives after its state has gone to the next
// target. It reaches the scanner and changes nothing.
func TestLateDuplicateAfterRecycleIgnored(t *testing.T) {
	hosts := recycleHosts()
	a, b := hosts[0], hosts[7] // IW-limited, then a reordered path
	tc := TargetConfig{Strategy: StrategyHTTP, MSSList: []int{64}, Repeats: 1}

	n, sc, _ := recycleNet([]recycleHost{b})
	var want *TargetResult
	sc.ProbeTarget(b.addr, tc, func(tr *TargetResult) { want = tr })
	n.RunUntilIdle()

	n, sc, _ = recycleNet([]recycleHost{a, b})
	var synAck []byte
	n.AddFilter(func(_ netsim.Time, pkt []byte) netsim.Verdict {
		ip, payload, err := wire.DecodeIPv4(pkt)
		if err == nil && ip.Src == a.addr && synAck == nil {
			if tcp, _, err := wire.DecodeTCP(ip.Src, ip.Dst, payload); err == nil && tcp.HasFlag(wire.FlagSYN) {
				synAck = bytes.Clone(pkt)
			}
		}
		return netsim.VerdictPass
	})
	sc.ProbeTarget(a.addr, tc, func(*TargetResult) {})
	n.RunUntilIdle()
	tp := sc.free[0]
	var got *TargetResult
	sc.ProbeTarget(b.addr, tc, func(tr *TargetResult) { got = tr })
	if len(sc.free) != 0 || tp.target != b.addr {
		t.Fatal("the second target did not take the first one's state")
	}
	// Mid-collection for b: its burst is out, its retransmission not.
	var rcvd int64
	n.After(100*netsim.Millisecond, func() {
		rcvd = sc.Stats().PacketsRcvd
		n.Send(bytes.Clone(synAck))
		n.Send(bytes.Clone(synAck))
	})
	n.RunUntilIdle()
	if synAck == nil || got == nil {
		t.Fatalf("captured SYN-ACK %v, result %v", synAck != nil, got)
	}
	if sc.Stats().PacketsRcvd < rcvd+2 {
		t.Fatal("the late duplicates never reached the scanner")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("with late duplicates %+v\nwithout %+v", got, want)
	}
}

// TestSecondBatchMakesNoState: a batch of concurrent targets makes one
// state each; a second batch through the same Scanner reuses them all.
func TestSecondBatchMakesNoState(t *testing.T) {
	n := netsim.New(33)
	n.SetPath(netsim.PathParams{Delay: 10 * netsim.Millisecond})
	sc := NewScanner(n, scanAddr, Config{Seed: 3})
	const batch = 20
	var addrs []wire.Addr
	for i := 0; i < batch; i++ {
		addr := wire.Addr(uint32(wire.MustParseAddr("198.51.100.0")) + uint32(i+1))
		newHostAt(n, addr, 1+i%10)
		addrs = append(addrs, addr)
	}
	run := func() {
		done := 0
		for i, addr := range addrs {
			sc.ProbeTarget(addr, TargetConfig{Strategy: StrategyHTTP, MSSList: []int{64}}, func(tr *TargetResult) {
				if tr.Outcome != OutcomeSuccess || tr.IW != 1+i%10 {
					t.Errorf("%s: %s IW=%d, want IW %d", addr, tr.Outcome, tr.IW, 1+i%10)
				}
				done++
			})
		}
		n.RunUntilIdle()
		if done != batch {
			t.Fatalf("%d of %d targets reported", done, batch)
		}
	}
	run()
	first := map[*targetProbe]bool{}
	for _, tp := range sc.free {
		first[tp] = true
	}
	if len(first) != batch {
		t.Fatalf("first batch made %d states, want %d", len(first), batch)
	}
	run()
	if len(sc.free) != batch {
		t.Fatalf("second batch left %d states, want the first batch's %d", len(sc.free), batch)
	}
	for _, tp := range sc.free {
		if !first[tp] {
			t.Fatal("second batch made a new state")
		}
	}
}
