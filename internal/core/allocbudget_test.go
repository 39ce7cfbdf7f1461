//go:build !race

// The race detector's instrumentation allocates on its own, so this
// file is built only without it.

package core

import (
	"testing"

	"iwscan/internal/httpsim"
	"iwscan/internal/tcpstack"
	"iwscan/internal/tlssim"
)

// TestProbeTargetAllocBudget is the allocation ratchet of the per-target
// prober: one whole ProbeTarget against a warm host, through the
// network and the host. The scanner's own share per target is the
// TargetResult, its PerMSS and Probes backing arrays, the Host text of
// an HTTP target (wire.Addr.String); the done closure below is one
// more. The rest is the host's per connection: the echo 404 assembled
// around each request's path and the TLS server decoding each
// ClientHello. Accepting a connection and opening its session cost
// nothing (see tcpstack's TestExchangeAllocBudget).
func TestProbeTargetAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget float64 // measured, plus one: MemStats counts the whole process
		tc     TargetConfig
		listen func(h *tcpstack.Host)
	}{
		// 6 probes, each a GET / and a bloated follow-up: 12 connections,
		// each with its echo 404; measured 23.
		{"http-bloat", 24, TargetConfig{Strategy: StrategyHTTP}, func(h *tcpstack.Host) {
			h.Listen(80, httpsim.NewServer(httpsim.ServerConfig{Root: httpsim.BehaviorNotFound, EchoURI: true}))
		}},
		// 6 connections at 5 allocations each on the host; measured 34.
		{"tls", 35, TargetConfig{Strategy: StrategyTLS}, func(h *tcpstack.Host) {
			h.Listen(443, tlssim.NewServer(tlssim.ServerConfig{Behavior: tlssim.BehaviorServeChain, ChainLen: 5000, Seed: 9}))
		}},
		// One connection, which the host opens in its own Conn and the
		// scanner resets: the result and the closure; measured 2.
		{"syn", 3, TargetConfig{Strategy: StrategySYN}, func(h *tcpstack.Host) {
			h.Listen(80, httpsim.NewServer(httpsim.ServerConfig{Root: httpsim.BehaviorPage, PageLen: 100}))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, linuxIW(10))
			tc.listen(e.host)
			var got *TargetResult
			probe := func() {
				e.scan.ProbeTarget(hostAddr, tc.tc, func(tr *TargetResult) { got = tr })
				e.net.RunUntilIdle()
			}
			for i := 0; i < 5; i++ { // render the host's memo, fill the free lists
				probe()
			}
			avg := testing.AllocsPerRun(50, probe)
			t.Logf("%.1f allocs per target", avg)
			if got.Outcome != OutcomeSuccess {
				t.Fatalf("outcome %s, want success", got.Outcome)
			}
			if avg > tc.budget {
				t.Errorf("one target cost %.1f allocs, budget %.0f", avg, tc.budget)
			}
			if len(e.scan.free) != 1 {
				t.Errorf("%d states made for one target at a time", len(e.scan.free))
			}
		})
	}
}
