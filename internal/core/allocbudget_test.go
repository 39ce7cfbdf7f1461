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
// TargetResult and its PerMSS and Probes backing arrays (the Host header
// is rendered into the recycled state); the done closure below is one
// more. The host's share is nothing: accepting a connection, opening its
// session, decoding a ClientHello and answering with an echo 404 or a
// memoised flight all reuse storage of the host's (see tcpstack's
// TestExchangeAllocBudget).
func TestProbeTargetAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget float64 // measured, plus one: MemStats counts the whole process
		tc     TargetConfig
		listen func(h *tcpstack.Host)
	}{
		// 6 probes, each a GET / and a bloated follow-up: 12 connections,
		// each with its echo 404; measured 4.
		{"http-bloat", 5, TargetConfig{Strategy: StrategyHTTP}, func(h *tcpstack.Host) {
			h.Listen(80, httpsim.NewServer(httpsim.ServerConfig{Root: httpsim.BehaviorNotFound, EchoURI: true}))
		}},
		// 6 connections, none allocating on the host; measured 4.
		{"tls", 5, TargetConfig{Strategy: StrategyTLS}, func(h *tcpstack.Host) {
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
