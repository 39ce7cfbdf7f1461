package experiments

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"iwscan/internal/checkpoint"
	"iwscan/internal/core"
	"iwscan/internal/flight"
	"iwscan/internal/inet"
	"iwscan/internal/wire"
)

// TestFlightRecorderDoesNotPerturbScan is the golden-scan guarantee
// end to end: a scan with the flight recorder armed (freezing every
// probe) must produce record-for-record identical results to the same
// scan without it — no RNG draws, no event reordering.
func TestFlightRecorderDoesNotPerturbScan(t *testing.T) {
	u := inet.NewInternet2017(77)
	base := ScanConfig{Seed: 5, Strategy: core.StrategyHTTP, SampleFraction: 0.002}

	bare := RunScan(u, base)

	armed := base
	armed.Flight = flight.NewRecorder(flight.Config{Triggers: map[string]bool{"all": true}})
	rec := RunScan(u, armed)

	if len(bare.Records) != len(rec.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(bare.Records), len(rec.Records))
	}
	for i := range bare.Records {
		if bare.Records[i] != rec.Records[i] {
			t.Fatalf("record %d differs with recorder armed:\nbare: %+v\narmed: %+v",
				i, bare.Records[i], rec.Records[i])
		}
	}
	if bare.Net != rec.Net {
		t.Fatalf("network stats differ:\nbare: %+v\narmed: %+v", bare.Net, rec.Net)
	}
	if armed.Flight.TotalFrozen() != int64(len(rec.Records)) {
		t.Fatalf("froze %d records for %d probes under the 'all' trigger",
			armed.Flight.TotalFrozen(), len(rec.Records))
	}
}

// TestFlightFreezeCapturesAllLayers checks frozen records carry a
// correlated multi-layer timeline. The default classifier (no
// FlightClassify) uses the scan's own outcome taxa as verdicts; the
// oracle-joined variant lives in internal/validate to avoid an import
// cycle.
func TestFlightFreezeCapturesAllLayers(t *testing.T) {
	u := inet.NewInternet2017(77)
	fr := flight.NewRecorder(flight.Config{Triggers: map[string]bool{"success": true}})
	res := RunScan(u, ScanConfig{
		Seed: 5, Strategy: core.StrategyHTTP, SampleFraction: 0.002, Flight: fr,
	})
	if fr.TotalFrozen() == 0 {
		t.Fatalf("no success records frozen across %d probes", len(res.Records))
	}
	for _, rec := range fr.Records() {
		if rec.Verdict != "success" || rec.Trigger != "verdict" {
			t.Fatalf("record = verdict %q trigger %q", rec.Verdict, rec.Trigger)
		}
		kinds := map[string]bool{}
		for _, ev := range rec.Events {
			kinds[ev.Type] = true
		}
		// A successful probe's timeline spans every layer: netsim packet
		// ops, scanner phases and steps, segment classifications, the
		// server stack's annotations, and the closing verdict.
		for _, want := range []string{"phase", "packet", "step", "segment", "stack", "verdict"} {
			if !kinds[want] {
				t.Fatalf("record for %s has no %q events: kinds %v", rec.Target, want, kinds)
			}
		}
		if rec.EndedNS <= rec.BeganNS {
			t.Fatalf("record for %s spans nothing: [%d, %d]", rec.Target, rec.BeganNS, rec.EndedNS)
		}
	}
}

func TestFlightConfigInCheckpointFingerprint(t *testing.T) {
	fp := func(c ScanConfig) string {
		return checkpoint.FingerprintFields(c.configFields(2017, 1<<20))
	}
	base := ScanConfig{Seed: 5, Strategy: core.StrategyHTTP, SampleFraction: 0.01}
	plain := fp(base)

	armed := base
	armed.Flight = flight.NewRecorder(flight.Config{Triggers: map[string]bool{"ghost": true}})
	if fp(armed) == plain {
		t.Fatal("arming the flight recorder does not change the checkpoint fingerprint")
	}

	other := base
	other.Flight = flight.NewRecorder(flight.Config{Triggers: map[string]bool{"missed": true}})
	if fp(other) == fp(armed) {
		t.Fatal("different trigger sets share a checkpoint fingerprint")
	}

	// A packet tap alone freezes nothing: adding or dropping -pcap must
	// not invalidate a checkpoint.
	tap := base
	tap.Flight = flight.NewRecorder(flight.Config{Pcap: flight.NewPcapWriter(io.Discard)})
	if fp(tap) != plain {
		t.Fatal("a recorder with only a pcap tap changes the checkpoint fingerprint")
	}
}

func TestParallelFlightRejectedDebugAllowed(t *testing.T) {
	u := inet.NewInternet2017(77)
	cfg := ScanConfig{
		Seed: 5, Strategy: core.StrategyHTTP, SampleFraction: 0.001,
		Flight: flight.NewRecorder(flight.Config{}),
	}
	if _, err := RunScanParallelChecked(u, cfg, 2); err == nil ||
		!strings.Contains(err.Error(), "per scan instance") {
		t.Fatalf("parallel scan with flight recorder: err = %v, want rejection", err)
	}
	// The debug server, by contrast, is shard-aware: a parallel scan
	// attaches one registry per shard and /metrics serves their merge.
	cfg.Flight = nil
	cfg.Debug = flight.NewDebugServer()
	res, err := RunScanParallelChecked(u, cfg, 2)
	if err != nil {
		t.Fatalf("parallel scan with debug server: %v", err)
	}
	req := httptest.NewRequest("GET", "/metrics.json", nil)
	rw := httptest.NewRecorder()
	cfg.Debug.Handler().ServeHTTP(rw, req)
	if rw.Code != 200 {
		t.Fatalf("/metrics.json after parallel scan: HTTP %d", rw.Code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(rw.Body.Bytes(), &snap); err != nil {
		t.Fatalf("parsing merged snapshot: %v", err)
	}
	if got := snap.Counters["engine.launched"]; got != res.Engine.Launched {
		t.Fatalf("merged snapshot launched = %d, want cross-shard sum %d", got, res.Engine.Launched)
	}
}

// TestFlightTraceHostFreezesRegardless pins the -trace-host path: the
// probed host freezes on any verdict, others do not.
func TestFlightTraceHostFreezesRegardless(t *testing.T) {
	u := inet.NewInternet2017(77)
	probe := RunScan(u, ScanConfig{Seed: 5, Strategy: core.StrategyHTTP, SampleFraction: 0.001})
	if len(probe.Records) == 0 {
		t.Skip("sample too small")
	}
	chosen := probe.Records[0].Addr
	fr := flight.NewRecorder(flight.Config{TraceHosts: map[wire.Addr]bool{chosen: true}})
	RunScan(u, ScanConfig{
		Seed: 5, Strategy: core.StrategyHTTP, SampleFraction: 0.001, Flight: fr,
	})
	if fr.TotalFrozen() != 1 {
		t.Fatalf("froze %d records, want exactly the traced host", fr.TotalFrozen())
	}
	rec := fr.Records()[0]
	if rec.Target != chosen.String() || rec.Trigger != "host" {
		t.Fatalf("record = %s trigger %s, want %s via host trigger", rec.Target, rec.Trigger, chosen)
	}
}
