package inet

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"iwscan/internal/core"
	"iwscan/internal/netsim"
	"iwscan/internal/tcpstack"
	"iwscan/internal/wire"
)

func TestUniverseDeterministic(t *testing.T) {
	a := NewInternet2017(1)
	b := NewInternet2017(1)
	for _, p := range a.Prefixes()[:3] {
		for i := uint64(0); i < 200; i++ {
			addr := p.Nth(i)
			ha, hb := a.HostAt(addr), b.HostAt(addr)
			if (ha == nil) != (hb == nil) {
				t.Fatalf("%s: liveness differs", addr)
			}
			if ha == nil {
				continue
			}
			if ha.HTTPLive != hb.HTTPLive || ha.TLSLive != hb.TLSLive ||
				ha.HTTPIW != hb.HTTPIW || ha.TLSIW != hb.TLSIW ||
				ha.HTTPProfile != hb.HTTPProfile || ha.TLSProfile != hb.TLSProfile {
				t.Fatalf("%s: specs differ", addr)
			}
		}
	}
}

func TestUniverseSeedsDiffer(t *testing.T) {
	a := NewInternet2017(1)
	b := NewInternet2017(2)
	diff := 0
	p := a.Prefixes()[0]
	for i := uint64(0); i < 500; i++ {
		addr := p.Nth(i)
		if (a.HostAt(addr) == nil) != (b.HostAt(addr) == nil) {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical populations")
	}
}

func TestASOfLookup(t *testing.T) {
	u := NewInternet2017(1)
	for _, as := range u.ASes {
		for _, p := range as.Prefixes {
			if got := u.ASOf(p.Nth(0)); got != as {
				t.Fatalf("ASOf(%s) = %v, want %s", p.Nth(0), got, as.Name)
			}
		}
	}
	if u.ASOf(wire.MustParseAddr("8.8.8.8")) != nil {
		t.Fatal("address outside all prefixes resolved to an AS")
	}
}

func TestHostDensities(t *testing.T) {
	u := NewInternet2017(3)
	for _, as := range u.ASes {
		p := as.Prefixes[0]
		n := p.Size()
		if n > 16384 {
			n = 16384
		}
		http, tls, both := 0, 0, 0
		for i := uint64(0); i < n; i++ {
			spec := u.HostAt(p.Nth(i))
			if spec == nil {
				continue
			}
			if spec.HTTPLive {
				http++
			}
			if spec.TLSLive {
				tls++
			}
			if spec.HTTPLive && spec.TLSLive {
				both++
			}
		}
		fh := float64(http) / float64(n)
		ft := float64(tls) / float64(n)
		fb := float64(both) / float64(n)
		if diff := fh - as.HTTPDensity; diff > 0.03 || diff < -0.03 {
			t.Errorf("%s: HTTP density %.3f, want %.3f", as.Name, fh, as.HTTPDensity)
		}
		if diff := ft - as.TLSDensity; diff > 0.03 || diff < -0.03 {
			t.Errorf("%s: TLS density %.3f, want %.3f", as.Name, ft, as.TLSDensity)
		}
		if diff := fb - as.BothFrac; diff > 0.03 || diff < -0.03 {
			t.Errorf("%s: both density %.3f, want %.3f", as.Name, fb, as.BothFrac)
		}
	}
}

func TestDualSameIWHosts(t *testing.T) {
	u := NewInternet2017(5)
	// HosterBig has DualSameIW: find dual hosts and verify policies match.
	var as *AS
	for _, a := range u.ASes {
		if a.Name == "HosterBig" {
			as = a
		}
	}
	checked := 0
	p := as.Prefixes[0]
	for i := uint64(0); i < p.Size() && checked < 50; i++ {
		spec := u.HostAt(p.Nth(i))
		if spec == nil || !spec.HTTPLive || !spec.TLSLive {
			continue
		}
		checked++
		if spec.HTTPIW != spec.TLSIW {
			t.Fatalf("%s: dual host with differing IW policies despite DualSameIW", spec.Addr)
		}
	}
	if checked == 0 {
		t.Fatal("no dual hosts found in HosterBig")
	}
}

func TestAkamaiTLSAlwaysIW4(t *testing.T) {
	u := NewInternet2017(5)
	var as *AS
	for _, a := range u.ASes {
		if a.Name == "Akamai" {
			as = a
		}
	}
	p := as.Prefixes[0]
	seen := 0
	for i := uint64(0); i < p.Size() && seen < 200; i++ {
		spec := u.HostAt(p.Nth(i))
		if spec == nil || !spec.TLSLive {
			continue
		}
		seen++
		if spec.TLSIW.Kind != tcpstack.IWSegments || spec.TLSIW.Segments != 4 {
			t.Fatalf("Akamai TLS host %s has IW %+v, want 4 segments", spec.Addr, spec.TLSIW)
		}
	}
	if seen < 100 {
		t.Fatalf("only %d Akamai TLS hosts sampled", seen)
	}
}

func TestExpectedIWSegments(t *testing.T) {
	spec := &HostSpec{
		Stack:  tcpstack.Config{MSS: tcpstack.MSSPolicy{Floor: 64}, LocalMSS: 1460},
		HTTPIW: tcpstack.IWPolicy{Kind: tcpstack.IWSegments, Segments: 10},
		TLSIW:  tcpstack.IWPolicy{Kind: tcpstack.IWBytes, Bytes: 4096},
	}
	if got := spec.ExpectedIWSegments(80, 64); got != 10 {
		t.Fatalf("HTTP expected = %d", got)
	}
	if got := spec.ExpectedIWSegments(443, 64); got != 64 {
		t.Fatalf("TLS expected = %d", got)
	}
	if got := spec.ExpectedIWSegments(443, 128); got != 32 {
		t.Fatalf("TLS@128 expected = %d", got)
	}
	// Windows fallback: announced 64 becomes 536.
	spec.Stack.MSS = tcpstack.MSSPolicy{Fallback: 536}
	if got := spec.ExpectedIWSegments(80, 64); got != 10 {
		t.Fatalf("Windows expected = %d", got)
	}
}

func TestReverseDNSStyles(t *testing.T) {
	u := NewInternet2017(7)
	for _, as := range u.ASes {
		addr := as.Prefixes[0].Nth(17)
		rdns := u.ReverseDNS(addr)
		switch as.RDNS {
		case RDNSNone:
			if rdns != "" {
				t.Errorf("%s: expected no rDNS, got %q", as.Name, rdns)
			}
		case RDNSStatic:
			if rdns == "" || !strings.HasSuffix(rdns, as.Domain) || strings.Contains(rdns, "-17.") {
				t.Errorf("%s: bad static rDNS %q", as.Name, rdns)
			}
		case RDNSAccessIP:
			if !strings.HasSuffix(rdns, as.Domain) {
				t.Errorf("%s: bad access rDNS %q", as.Name, rdns)
			}
			a, b, c, d := byte(addr>>24), byte(addr>>16), byte(addr>>8), byte(addr)
			want := strings.ReplaceAll(wire.Addr(uint32(a)<<24|uint32(b)<<16|uint32(c)<<8|uint32(d)).String(), ".", "-")
			if !strings.Contains(rdns, want) {
				t.Errorf("%s: rDNS %q does not encode the IP", as.Name, rdns)
			}
		}
	}
	if u.ReverseDNS(wire.MustParseAddr("8.8.8.8")) != "" {
		t.Fatal("rDNS for unowned address")
	}
}

// referenceReverseDNS is ReverseDNS as written with fmt, before names
// were built in a stack buffer.
func referenceReverseDNS(u *Universe, addr wire.Addr) string {
	as := u.ASOf(addr)
	if as == nil {
		return ""
	}
	a, b, c, d := byte(addr>>24), byte(addr>>16), byte(addr>>8), byte(addr)
	switch as.RDNS {
	case RDNSAccessIP:
		kws := []string{"customer", "dyn", "dialin"}
		if as.Class != ClassAccess {
			kws = []string{"static", "node", "core"}
		}
		kw := kws[u.hash(0x5d5, addr)%3]
		return fmt.Sprintf("%d-%d-%d-%d.%s.%s", a, b, c, d, kw, as.Domain)
	case RDNSStatic:
		return fmt.Sprintf("srv%d.%s", u.hash(0x5d6, addr)%100000, as.Domain)
	default:
		return ""
	}
}

// TestReverseDNSMatchesReference holds ReverseDNS to the fmt reference
// over addresses of every AS, so every rDNS style and AS class, and over
// addresses no AS owns.
func TestReverseDNSMatchesReference(t *testing.T) {
	u := NewInternet2017(7)
	styles := map[RDNSStyle]bool{}
	classes := map[ServiceClass]bool{}
	addrs := []wire.Addr{wire.MustParseAddr("8.8.8.8"), wire.MustParseAddr("0.0.0.0"), wire.MustParseAddr("255.255.255.255")}
	for _, as := range u.ASes {
		styles[as.RDNS], classes[as.Class] = true, true
		for _, p := range as.Prefixes {
			step := max(p.Size()/100, 1)
			for i := uint64(0); i < p.Size(); i += step {
				addrs = append(addrs, p.Nth(i))
			}
		}
	}
	if len(styles) != 3 || len(classes) != 7 || len(addrs) < 1000 {
		t.Fatalf("table covers %d rDNS styles, %d AS classes and %d addresses; want 3, 7 and at least 1000", len(styles), len(classes), len(addrs))
	}
	for _, addr := range addrs {
		if got, want := u.ReverseDNS(addr), referenceReverseDNS(u, addr); got != want {
			t.Fatalf("ReverseDNS(%s) = %q, want %q", addr, got, want)
		}
	}
}

// TestNetworksShareUniverseConcurrently: every shard's simulator
// materialises its hosts from one Universe on a goroutine of its own.
// Two networks probing the same hosts at once must see the same
// results and reap every host they built; under -race, any state a
// host kept in the Universe would show as a race.
func TestNetworksShareUniverseConcurrently(t *testing.T) {
	u := NewInternet2017(3)
	var specs []*HostSpec
	for _, p := range u.Prefixes() {
		for i := uint64(0); i < p.Size() && i < 16; i++ {
			if s := u.HostAt(p.Nth(i)); s != nil {
				specs = append(specs, s)
			}
		}
	}
	scan := func() ([]string, int) {
		n := netsim.New(1)
		n.SetFactory(u)
		n.SetPath(netsim.PathParams{Delay: 10 * netsim.Millisecond})
		sc := core.NewScanner(n, oracleScannerAddr, core.Config{Seed: 1})
		out := make([]string, 2*len(specs))
		for i, s := range specs {
			for j, port := range []uint16{80, 443} {
				if !s.ServiceLive(port) {
					continue
				}
				strat := core.StrategyHTTP
				if port == 443 {
					strat = core.StrategyTLS
				}
				sc.ProbeTarget(s.Addr, core.TargetConfig{Strategy: strat, Port: port, MSSList: []int{64}},
					func(tr *core.TargetResult) {
						out[2*i+j] = fmt.Sprintf("%s iw=%d lb=%d", tr.Outcome, tr.IW, tr.LowerBound)
					})
			}
		}
		n.RunUntilIdle()
		return out, n.NodeCount()
	}
	var results [2][]string
	var nodes [2]int
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], nodes[i] = scan()
		}()
	}
	wg.Wait()
	for i := range results[0] {
		if results[0][i] != results[1][i] {
			t.Fatalf("%s: the two networks disagree: %q vs %q", specs[i/2].Addr, results[0][i], results[1][i])
		}
	}
	if nodes != [2]int{1, 1} {
		t.Fatalf("nodes left registered: %v, want only each scanner", nodes)
	}
	if len(specs) < 50 {
		t.Fatalf("only %d live hosts probed", len(specs))
	}
}

func TestCreateHostMaterializesAndReaps(t *testing.T) {
	u := NewInternet2017(9)
	n := netsim.New(1)
	n.SetFactory(u)
	// Find a live host.
	var spec *HostSpec
	p := u.Prefixes()[0]
	for i := uint64(0); i < p.Size(); i++ {
		if s := u.HostAt(p.Nth(i)); s != nil && s.HTTPLive {
			spec = s
			break
		}
	}
	if spec == nil {
		t.Fatal("no live host found")
	}
	node := u.CreateHost(n, spec.Addr)
	if node == nil {
		t.Fatal("live host did not materialize")
	}
	if u.CreateHost(n, wire.MustParseAddr("8.8.8.8")) != nil {
		t.Fatal("unowned address materialized")
	}
}

func TestIWPolicyLabels(t *testing.T) {
	if p := iwPolicy(10); p.Kind != tcpstack.IWSegments || p.Segments != 10 {
		t.Fatalf("segments label: %+v", p)
	}
	if p := iwPolicy(IWLabelBytes4k); p.Kind != tcpstack.IWBytes || p.Bytes != 4096 {
		t.Fatalf("4k label: %+v", p)
	}
	if p := iwPolicy(IWLabelMTUFill); p.Kind != tcpstack.IWMTUFill || p.Bytes != 1536 {
		t.Fatalf("mtufill label: %+v", p)
	}
}

func TestGoDaddyMinChain(t *testing.T) {
	u := NewInternet2017(5)
	var as *AS
	for _, a := range u.ASes {
		if a.Name == "GoDaddy" {
			as = a
		}
	}
	p := as.Prefixes[0]
	for i := uint64(0); i < 500; i++ {
		spec := u.HostAt(p.Nth(i))
		if spec == nil || !spec.TLSLive {
			continue
		}
		if spec.TLSCfg.ChainLen < as.MinChain {
			t.Fatalf("GoDaddy chain %d below floor %d", spec.TLSCfg.ChainLen, as.MinChain)
		}
	}
}

func TestServiceClassString(t *testing.T) {
	for c, want := range map[ServiceClass]string{
		ClassContent: "content", ClassCloud: "cloud", ClassCDN: "cdn",
		ClassISP: "isp", ClassAccess: "access", ClassUniversity: "university",
		ClassLegacy: "legacy",
	} {
		if c.String() != want {
			t.Fatalf("%d.String() = %q", int(c), c.String())
		}
	}
}

// Property: every derived host spec is internally consistent.
func TestHostSpecConsistencyProperty(t *testing.T) {
	u := NewInternet2017(13)
	prefixes := u.Prefixes()
	f := func(pi uint8, off uint16) bool {
		p := prefixes[int(pi)%len(prefixes)]
		addr := p.Nth(uint64(off) % p.Size())
		spec := u.HostAt(addr)
		if spec == nil {
			return true
		}
		if !spec.HTTPLive && !spec.TLSLive {
			return false // live spec must serve something
		}
		if spec.HTTPLive && spec.HTTPIW.IW(64) <= 0 {
			return false
		}
		if spec.TLSLive && spec.TLSCfg.Behavior == 0 && spec.TLSCfg.ChainLen <= 0 {
			return false
		}
		return spec.AS == u.ASOf(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCondProfileSelection(t *testing.T) {
	if condProfileFor(1, false) != condIW1 || condProfileFor(1, true) != legacyCondIW1 {
		t.Fatal("IW1 profile selection wrong")
	}
	if condProfileFor(2, false) != condIW2 {
		t.Fatal("IW2 profile selection wrong")
	}
	if condProfileFor(3, false) != condIW34 || condProfileFor(4, true) != legacyCondIW34 {
		t.Fatal("IW3/4 profile selection wrong")
	}
	if condProfileFor(10, false) != condIW10 || condProfileFor(10, true) != condIW10 {
		t.Fatal("IW10 profile selection wrong")
	}
	if condProfileFor(48, false) != condIWBig || condProfileFor(IWLabelBytes4k, false) != condIWBig {
		t.Fatal("big-IW profile selection wrong")
	}
}
