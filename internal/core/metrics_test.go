package core

import (
	"slices"
	"testing"

	"iwscan/internal/httpsim"
	"iwscan/internal/netsim"
	"iwscan/internal/wire"
)

// TestProbeLifecycleMetrics: a successful HTTP probe must populate the
// RTT histogram, the phase-duration histograms along the Figure-1 path
// (SYN sent → SYN-ACK → retransmit seen → verify release), the
// lifetime histogram, and the success outcome counter.
func TestProbeLifecycleMetrics(t *testing.T) {
	e := newEnv(t, linuxIW(10))
	e.host.Listen(80, httpsim.NewServer(httpsim.ServerConfig{Root: httpsim.BehaviorPage, PageLen: 8000}))
	tr := e.probe(t, TargetConfig{Strategy: StrategyHTTP, MSSList: []int{64}, Repeats: 1})
	if tr.Outcome != OutcomeSuccess {
		t.Fatalf("outcome = %s", tr.Outcome)
	}

	reg := e.net.Metrics()
	rtt := reg.Histogram("core.rtt_ns").Value()
	if rtt.Count == 0 {
		t.Fatal("RTT histogram empty")
	}
	// One-way delay is 10 ms, so every RTT is exactly 20 ms of virtual
	// time.
	if want := int64(20 * netsim.Millisecond); rtt.Min != want || rtt.Max != want {
		t.Fatalf("RTT min/max = %d/%d, want %d", rtt.Min, rtt.Max, want)
	}

	for _, name := range []string{
		"core.probe.phase.syn_sent_to_syn_ack_ns",
		"core.probe.phase.syn_ack_to_retransmit_seen_ns",
		"core.probe.phase.retransmit_seen_to_burst_collected_ns",
		"core.probe.phase.burst_collected_to_verify_release_ns",
		"core.probe.lifetime_ns",
	} {
		if v := reg.Histogram(name).Value(); v.Count == 0 {
			t.Fatalf("phase histogram %s empty", name)
		}
	}
	if got := reg.Counter("core.probe.outcome.success").Value(); got == 0 {
		t.Fatal("success outcome counter empty")
	}
	// Registry counters mirror the struct counters exactly.
	st := e.scan.Stats()
	if v := reg.Counter("core.probes_started").Value(); v != st.ProbesStarted {
		t.Fatalf("probes_started counter %d != struct %d", v, st.ProbesStarted)
	}
	if v := reg.Counter("core.synacks").Value(); v != st.SynAcks || st.SynAcks == 0 {
		t.Fatalf("synacks counter %d != struct %d", v, st.SynAcks)
	}
	if v := reg.Counter("core.retransmits").Value(); v != st.Retransmits {
		t.Fatalf("retransmits counter %d != struct %d", v, st.Retransmits)
	}
}

// TestProbeLifecycleOutcomeTaxa: failure classes land in distinct
// outcome counters with their refinement suffix.
func TestProbeLifecycleOutcomeTaxa(t *testing.T) {
	// No listener on the target network at all: SYN times out.
	n := netsim.New(7)
	n.SetPath(netsim.PathParams{Delay: 10 * netsim.Millisecond})
	sc := NewScanner(n, scanAddr, Config{Seed: 1})
	var got *TargetResult
	sc.ProbeTarget(hostAddr, TargetConfig{Strategy: StrategyHTTP, MSSList: []int{64}, Repeats: 1},
		func(tr *TargetResult) { got = tr })
	n.RunUntilIdle()
	if got == nil || got.Outcome != OutcomeUnreachable {
		t.Fatalf("result = %+v", got)
	}
	if v := n.Metrics().Counter("core.probe.outcome.unreachable:syn-timeout").Value(); v == 0 {
		t.Fatal("syn-timeout taxon not counted")
	}

	// A host with a closed port: RST refuses the handshake.
	e := newEnv(t, linuxIW(10))
	_ = e.probe(t, TargetConfig{Strategy: StrategyHTTP, Port: 81, MSSList: []int{64}, Repeats: 1})
	if v := e.net.Metrics().Counter("core.probe.outcome.unreachable:refused").Value(); v == 0 {
		t.Fatal("refused taxon not counted")
	}
}

// phaseRecorder is a FlightSink that keeps only the phase events.
type phaseRecorder struct {
	phases []string
	at     []netsim.Time
}

func (r *phaseRecorder) ProbePhase(at netsim.Time, _ wire.Addr, phase string) {
	r.phases = append(r.phases, phase)
	r.at = append(r.at, at)
}
func (*phaseRecorder) ProbeSegment(netsim.Time, wire.Addr, int, int, string)  {}
func (*phaseRecorder) ProbeStep(netsim.Time, wire.Addr, string, int64, int64) {}

// TestProbePhaseOrder: a successful HTTP probe reports the Figure-1
// phases to the flight sink in order, at non-decreasing virtual times,
// and ends with its outcome taxon.
func TestProbePhaseOrder(t *testing.T) {
	e := newEnv(t, linuxIW(4))
	rec := &phaseRecorder{}
	e.scan.SetFlight(rec)
	e.host.Listen(80, httpsim.NewServer(httpsim.ServerConfig{Root: httpsim.BehaviorPage, PageLen: 8000}))
	tr := e.probe(t, TargetConfig{Strategy: StrategyHTTP, MSSList: []int{64}, Repeats: 1})
	if tr.Outcome != OutcomeSuccess {
		t.Fatalf("outcome = %s", tr.Outcome)
	}
	want := []string{"syn_sent", "syn_ack", "retransmit_seen", "burst_collected", "verify_release", "done:success"}
	if len(rec.phases) < len(want) || !slices.Equal(rec.phases[:len(want)], want) {
		t.Fatalf("first probe's phases = %v, want %v", rec.phases, want)
	}
	for i := 1; i < len(rec.at); i++ {
		if rec.at[i] < rec.at[i-1] {
			t.Fatalf("phase %s at %d precedes %s at %d", rec.phases[i], rec.at[i], rec.phases[i-1], rec.at[i-1])
		}
	}
}

// TestProbeAccountingWarmAllocFree pins the cost of the lifecycle
// aggregates on the probe hot path: once a transition's histogram and
// an outcome's counter are resolved, a probe's phase and outcome
// accounting must not touch the heap — a refined taxon such as
// error:loss-gap included, whose counter name is built on first use
// only.
func TestProbeAccountingWarmAllocFree(t *testing.T) {
	n := netsim.New(1)
	sc := NewScanner(n, scanAddr, Config{})
	c := &connProbe{sc: sc}
	ok := ProbeResult{Outcome: OutcomeSuccess}
	gap := ProbeResult{Outcome: OutcomeError, Err: "loss-gap"}
	cycle := func() {
		c.synAt = n.Now()
		c.phase, c.phaseAt = phaseSynSent, c.synAt
		c.trace(phaseSynAck)
		c.trace(phaseRetransmitSeen)
		c.trace(phaseBurstCollected)
		c.trace(phaseVerifyRelease)
		sc.cm.outcome(&ok, n.Now()-c.synAt)
		sc.cm.outcome(&gap, n.Now()-c.synAt)
	}
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("warm phase×4 + outcome×2 accounting cost %.2f allocs, want 0", avg)
	}
	// 202 cycles: the one above, AllocsPerRun's own warm-up, 200 measured.
	reg := n.Metrics()
	if got := reg.Histogram("core.probe.phase.syn_ack_to_retransmit_seen_ns").Value(); got.Count != 202 {
		t.Errorf("transition histogram = %+v, want 202 observations", got)
	}
	if got := reg.Histogram("core.probe.lifetime_ns").Value(); got.Count != 2*202 {
		t.Errorf("lifetime histogram = %+v, want %d observations", got, 2*202)
	}
	for _, name := range []string{"core.probe.outcome.success", "core.probe.outcome.error:loss-gap"} {
		if got := reg.Counter(name).Value(); got != 202 {
			t.Errorf("%s = %d, want 202", name, got)
		}
	}
}

// TestDuplicationCounted: path duplication shows up in the new netsim
// counter instead of silently inflating PacketsDelivered.
func TestDuplicationCounted(t *testing.T) {
	e := newEnv(t, linuxIW(10))
	e.net.SetPath(netsim.PathParams{Delay: 10 * netsim.Millisecond, Duplicate: 1})
	e.host.Listen(80, httpsim.NewServer(httpsim.ServerConfig{Root: httpsim.BehaviorPage, PageLen: 8000}))
	_ = e.probe(t, TargetConfig{Strategy: StrategyHTTP, MSSList: []int{64}, Repeats: 1})
	st := e.net.Stats()
	if st.PacketsDuplicated == 0 {
		t.Fatal("duplicates not counted")
	}
	if st.PacketsDelivered != st.PacketsSent+st.PacketsDuplicated {
		t.Fatalf("delivered %d != sent %d + duplicated %d",
			st.PacketsDelivered, st.PacketsSent, st.PacketsDuplicated)
	}
	if v := e.net.Metrics().Counter("netsim.packets_duplicated").Value(); v != st.PacketsDuplicated {
		t.Fatalf("registry duplicated %d != struct %d", v, st.PacketsDuplicated)
	}
}
