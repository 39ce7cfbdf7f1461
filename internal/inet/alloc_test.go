//go:build !race

// The race detector's instrumentation allocates on its own, so this
// file is built only without it.

package inet

import (
	"testing"

	"iwscan/internal/httpsim"
	"iwscan/internal/netsim"
	"iwscan/internal/wire"
)

// TestCreateHostAllocBudget: materialising a host is one allocation,
// the value holding its stack, both servers and their connection and
// session slots, whichever services it runs. A redirecting HTTP host
// also allocates its Location host name.
func TestCreateHostAllocBudget(t *testing.T) {
	u := NewInternet2017(1)
	find := func(match func(s *HostSpec) bool) wire.Addr {
		for _, p := range u.Prefixes() {
			for i := uint64(0); i < p.Size() && i < 4096; i++ {
				if s := u.HostAt(p.Nth(i)); s != nil && match(s) {
					return s.Addr
				}
			}
		}
		t.Fatal("no such host in the universe")
		return 0
	}
	redirects := func(s *HostSpec) bool { return s.HTTPLive && s.HTTPCfg.Root == httpsim.BehaviorRedirect }
	for _, tc := range []struct {
		name   string
		budget float64
		match  func(s *HostSpec) bool
	}{
		{"http-only", 1, func(s *HostSpec) bool { return s.HTTPLive && !s.TLSLive && !redirects(s) }},
		{"tls-only", 1, func(s *HostSpec) bool { return !s.HTTPLive && s.TLSLive }},
		{"dual", 1, func(s *HostSpec) bool { return s.HTTPLive && s.TLSLive && !redirects(s) }},
		{"http-redirect", 2, redirects},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := find(tc.match)
			n := netsim.New(1)
			avg := testing.AllocsPerRun(100, func() {
				if u.CreateHost(n, addr) == nil {
					t.Fatalf("%s did not materialise", addr)
				}
				n.Unregister(addr)
			})
			t.Logf("%s: %.1f allocs", addr, avg)
			if avg > tc.budget {
				t.Errorf("a cold CreateHost(%s) cost %.1f allocs, budget %.0f", addr, avg, tc.budget)
			}
		})
	}
}

// TestReverseDNSAllocBudget: a name is built in a stack buffer, so the
// returned string is its one allocation.
func TestReverseDNSAllocBudget(t *testing.T) {
	u := NewInternet2017(1)
	for _, as := range u.ASes {
		addr := as.Prefixes[0].Nth(200)
		if avg := testing.AllocsPerRun(100, func() { u.ReverseDNS(addr) }); avg > 1 {
			t.Errorf("%s: ReverseDNS cost %.1f allocs, want at most 1", as.Name, avg)
		}
	}
}
