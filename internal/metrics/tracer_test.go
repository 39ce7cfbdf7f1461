package metrics

import (
	"fmt"
	"sync"
	"testing"
)

func TestTracerEvictionCounters(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, "probe")
	tr.SetKeep(2)
	for i := 0; i < 4; i++ {
		id := tr.Begin("x", "start", int64(i))
		tr.End(id, "success", int64(i)+10)
	}
	if got := reg.Counter("probe.traces_evicted").Value(); got != 2 {
		t.Fatalf("evicted = %d, want 2", got)
	}
	if got := reg.Gauge("probe.traces_retained").Value(); got != 2 {
		t.Fatalf("retained = %d, want 2", got)
	}
	// Shrinking the window evicts the overflow immediately.
	tr.SetKeep(1)
	if got := reg.Counter("probe.traces_evicted").Value(); got != 3 {
		t.Fatalf("evicted after shrink = %d, want 3", got)
	}
	if got := reg.Gauge("probe.traces_retained").Value(); got != 1 {
		t.Fatalf("retained after shrink = %d, want 1", got)
	}
	if n := len(tr.Completed()); n != 1 {
		t.Fatalf("ring holds %d traces, want 1", n)
	}
}

// TestTracerConcurrentLifecycle hammers Begin/Phase/End from many
// goroutines; run under -race it proves the tracer's locking. The
// invariants checked here hold regardless of interleaving.
func TestTracerConcurrentLifecycle(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, "probe")
	tr.SetKeep(8)
	const workers = 8
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				at := int64(w*perWorker + i)
				id := tr.Begin(fmt.Sprintf("w%d", w), "syn_sent", at)
				tr.Phase(id, "syn_ack", at+1)
				tr.Phase(id, "collect", at+2)
				// Ending a foreign or already-ended ID must be harmless.
				tr.Phase(id+1, "ghost", at)
				tr.End(id, "success", at+3)
				tr.End(id, "success", at+3)
			}
		}(w)
	}
	wg.Wait()
	if n := tr.Active(); n != 0 {
		t.Fatalf("%d traces still active", n)
	}
	const total = workers * perWorker
	if got := reg.Counter("probe.outcome.success").Value(); got != total {
		t.Fatalf("outcomes = %d, want %d", got, total)
	}
	ring := tr.Completed()
	if len(ring) != 8 {
		t.Fatalf("ring holds %d, want 8", len(ring))
	}
	if got := reg.Counter("probe.traces_evicted").Value(); got != total-8 {
		t.Fatalf("evicted = %d, want %d", got, total-8)
	}
	if got := reg.Gauge("probe.traces_retained").Value(); got != 8 {
		t.Fatalf("retained = %d, want 8", got)
	}
	for _, pt := range ring {
		if len(pt.Events) != 3 || pt.Outcome != "success" {
			t.Fatalf("retained trace corrupted: %+v", pt)
		}
	}
}

// TestTracerWarmCycleAllocatesNothing pins the cost of tracing with
// retention off, the state every scan runs in: once the transition
// histograms and the outcome counter are resolved, a whole probe
// lifecycle must not touch the heap.
func TestTracerWarmCycleAllocatesNothing(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, "probe")
	cycle := func() {
		id := tr.Begin("", "syn_sent", 100)
		tr.Phase(id, "syn_ack", 150)
		tr.Phase(id, "retransmit_seen", 900)
		tr.Phase(id, "burst_collected", 900)
		tr.End(id, "success", 1000)
	}
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Errorf("warm Begin/Phase×3/End cycle cost %.2f allocs, want 0", avg)
	}
	// 202 cycles: the one above, AllocsPerRun's own warm-up, 200 measured.
	if got := reg.Histogram("probe.phase.syn_ack_to_retransmit_seen_ns").Value(); got.Count != 202 || got.Max != 750 {
		t.Errorf("transition histogram = %+v, want 202 observations of 750", got)
	}
	if got := reg.Histogram("probe.lifetime_ns").Value(); got.Count != 202 || got.Max != 900 {
		t.Errorf("lifetime histogram = %+v, want 202 observations of 900", got)
	}
	if got := reg.Counter("probe.outcome.success").Value(); got != 202 {
		t.Errorf("outcome counter = %d, want 202", got)
	}
}

// TestTracerRetentionSwitchedMidTrace: a trace begun while retention
// was off has kept no events, so it is aggregated but not retained; one
// begun after SetKeep is retained whole.
func TestTracerRetentionSwitchedMidTrace(t *testing.T) {
	reg := NewRegistry()
	tr := NewTracer(reg, "probe")
	early := tr.Begin("early", "syn_sent", 0)
	tr.SetKeep(4)
	if !tr.Retains() {
		t.Fatal("Retains() false after SetKeep(4)")
	}
	late := tr.Begin("late", "syn_sent", 1)
	tr.Phase(early, "syn_ack", 2)
	tr.Phase(late, "syn_ack", 3)
	tr.End(early, "success", 4)
	tr.End(late, "success", 5)
	done := tr.Completed()
	if len(done) != 1 || done[0].Label != "late" || len(done[0].Events) != 2 || done[0].Duration() != 4 {
		t.Fatalf("retained = %+v, want the late trace with both events", done)
	}
	if got := reg.Counter("probe.outcome.success").Value(); got != 2 {
		t.Fatalf("outcomes = %d, want both traces aggregated", got)
	}
}
