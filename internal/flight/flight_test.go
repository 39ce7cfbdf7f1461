package flight

import (
	"bytes"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"iwscan/internal/events"
	"iwscan/internal/metrics"
	"iwscan/internal/netsim"
	"iwscan/internal/wire"
)

var (
	scannerAddr = wire.MustParseAddr("198.18.0.1")
	targetAddr  = wire.MustParseAddr("20.0.0.7")
	otherAddr   = wire.MustParseAddr("20.0.0.8")
)

// tcpPkt builds an encoded IPv4+TCP packet for observer-side tests.
func tcpPkt(src, dst wire.Addr, sport, dport uint16, flags byte, seq uint32, payload []byte) []byte {
	h := wire.NewTCPHeader()
	h.SrcPort = sport
	h.DstPort = dport
	h.Flags = flags
	h.Seq = seq
	seg := wire.EncodeTCP(nil, src, dst, h, payload)
	return wire.EncodeIPv4(nil, &wire.IPv4Header{Protocol: wire.ProtoTCP, Src: src, Dst: dst}, seg)
}

// newRecorder builds a recorder attached to a throwaway simulation, so
// packet attribution knows which endpoint is the scanner.
func newRecorder(cfg Config) *Recorder {
	r := NewRecorder(cfg)
	r.Attach(netsim.New(1), scannerAddr)
	return r
}

// record runs one synthetic probe journal through r and returns whether
// it froze.
func record(r *Recorder, target wire.Addr, verdict string) bool {
	r.Begin(0, target)
	r.ProbePhase(0, target, "syn_sent")
	r.PacketEvent(netsim.OpSend, 0, tcpPkt(scannerAddr, target, 4000, 80, wire.FlagSYN, 1, nil))
	r.PacketEvent(netsim.OpDropLoss, 1e6, tcpPkt(target, scannerAddr, 80, 4000, wire.FlagSYN|wire.FlagACK, 9, nil))
	r.Note(2e6, target, scannerAddr, "tcp.rto_synack", 1, 2e9)
	r.ProbeSegment(3e6, target, 0, 64, "new")
	r.ProbeStep(4e6, target, "synack_options", 64, 65535)
	return r.End(5e6, target, verdict, "test detail")
}

func TestTriggerPrecedenceAndMatching(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		verdict string
		trigger string // "" = must recycle
	}{
		{"no triggers", Config{}, "ghost", ""},
		{"verdict exact", Config{Triggers: map[string]bool{"ghost": true}}, "ghost", "verdict"},
		{"verdict miss", Config{Triggers: map[string]bool{"ghost": true}}, "exact", ""},
		{"verdict prefix", Config{Triggers: map[string]bool{"error": true}}, "error:loss-gap", "verdict"},
		{"all", Config{Triggers: map[string]bool{"all": true}}, "exact", "verdict"},
		{"host beats verdict", Config{
			TraceHosts: map[wire.Addr]bool{targetAddr: true},
			Triggers:   map[string]bool{"all": true},
		}, "exact", "host"},
		{"sample everything", Config{SampleRate: 1}, "exact", "sample"},
		{"sample nothing", Config{SampleRate: 0}, "exact", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRecorder(tc.cfg)
			froze := record(r, targetAddr, tc.verdict)
			if want := tc.trigger != ""; froze != want {
				t.Fatalf("froze = %v, want %v", froze, want)
			}
			if tc.trigger == "" {
				return
			}
			recs := r.Records()
			if len(recs) != 1 {
				t.Fatalf("retained %d records, want 1", len(recs))
			}
			if recs[0].Trigger != tc.trigger {
				t.Fatalf("trigger = %q, want %q", recs[0].Trigger, tc.trigger)
			}
			if recs[0].Verdict != tc.verdict {
				t.Fatalf("verdict = %q, want %q", recs[0].Verdict, tc.verdict)
			}
		})
	}
}

func TestSamplingIsDeterministic(t *testing.T) {
	freezeSet := func() map[wire.Addr]bool {
		r := newRecorder(Config{SampleRate: 0.5, Seed: 99})
		out := make(map[wire.Addr]bool)
		for a := wire.Addr(1); a < 200; a++ {
			if record(r, a, "exact") {
				out[a] = true
			}
		}
		return out
	}
	a, b := freezeSet(), freezeSet()
	if len(a) == 0 || len(a) == 199 {
		t.Fatalf("sample rate 0.5 froze %d of 199 probes", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("freeze sets differ in size: %d vs %d", len(a), len(b))
	}
	for addr := range a {
		if !b[addr] {
			t.Fatalf("freeze sets disagree on %s", addr)
		}
	}
}

func TestEventRingOverflow(t *testing.T) {
	r := newRecorder(Config{Triggers: map[string]bool{"all": true}, EventCap: 8})
	r.Begin(0, targetAddr)
	for i := 0; i < 20; i++ {
		r.ProbeStep(netsim.Time(i), targetAddr, "step", int64(i), 0)
	}
	if !r.End(100, targetAddr, "exact", "") {
		t.Fatal("record did not freeze")
	}
	rec := r.Records()[0]
	if len(rec.Events) != 8 {
		t.Fatalf("kept %d events, want the ring cap 8", len(rec.Events))
	}
	// 20 steps + 1 verdict through an 8-slot ring = 13 overwritten.
	if rec.EventsTruncated != 13 {
		t.Fatalf("EventsTruncated = %d, want 13", rec.EventsTruncated)
	}
	// Oldest-first order survives the wraparound; the newest event is
	// the verdict.
	for i := 1; i < len(rec.Events); i++ {
		if rec.Events[i].AtNS < rec.Events[i-1].AtNS {
			t.Fatalf("events out of order at %d: %v", i, rec.Events)
		}
	}
	if last := rec.Events[len(rec.Events)-1]; last.Type != "verdict" || last.Note != "exact" {
		t.Fatalf("last event = %+v, want the verdict", last)
	}
}

func TestPacketBufferOverflow(t *testing.T) {
	r := newRecorder(Config{Triggers: map[string]bool{"all": true}, PacketBytes: 128})
	r.Begin(0, targetAddr)
	pkt := tcpPkt(scannerAddr, targetAddr, 4000, 80, wire.FlagACK, 1, make([]byte, 60))
	for i := 0; i < 5; i++ {
		r.PacketEvent(netsim.OpSend, netsim.Time(i), pkt)
	}
	r.End(10, targetAddr, "exact", "")
	rec := r.Records()[0]
	if len(rec.Packets) == 0 || len(rec.Packets) == 5 {
		t.Fatalf("captured %d packets, want a partial capture", len(rec.Packets))
	}
	if rec.PacketsTruncated != 5-len(rec.Packets) {
		t.Fatalf("PacketsTruncated = %d, want %d", rec.PacketsTruncated, 5-len(rec.Packets))
	}
	// All events still journaled: the ring is independent of the packet
	// byte budget.
	pktEvents := 0
	for _, ev := range rec.Events {
		if ev.Type == "packet" {
			pktEvents++
		}
	}
	if pktEvents != 5 {
		t.Fatalf("journaled %d packet events, want 5", pktEvents)
	}
}

func TestEventsRouteToTheirTarget(t *testing.T) {
	r := newRecorder(Config{Triggers: map[string]bool{"all": true}})
	r.Begin(0, targetAddr)
	r.Begin(0, otherAddr)
	// Traffic in both directions lands on the target's slab; the other
	// probe's slab stays empty of it.
	r.PacketEvent(netsim.OpSend, 1, tcpPkt(scannerAddr, targetAddr, 4000, 80, wire.FlagSYN, 1, nil))
	r.PacketEvent(netsim.OpSend, 2, tcpPkt(targetAddr, scannerAddr, 80, 4000, wire.FlagSYN|wire.FlagACK, 1, nil))
	r.Note(3, targetAddr, scannerAddr, "tcp.established", 0, 0)
	r.End(10, targetAddr, "exact", "")
	r.End(10, otherAddr, "exact", "")
	recs := r.Records()
	if len(recs) != 2 {
		t.Fatalf("retained %d records, want 2", len(recs))
	}
	if n := len(recs[0].Events); n != 4 { // 2 packets + note + verdict
		t.Fatalf("target record has %d events, want 4: %+v", n, recs[0].Events)
	}
	if n := len(recs[1].Events); n != 1 { // just its verdict
		t.Fatalf("bystander record has %d events, want 1: %+v", n, recs[1].Events)
	}
}

func TestRetryRestartsJournal(t *testing.T) {
	r := newRecorder(Config{Triggers: map[string]bool{"all": true}})
	r.Begin(0, targetAddr)
	r.ProbeStep(1, targetAddr, "first_launch", 0, 0)
	// The engine relaunches the same target: the journal restarts.
	r.Begin(5, targetAddr)
	r.ProbeStep(6, targetAddr, "second_launch", 0, 0)
	r.End(10, targetAddr, "exact", "")
	rec := r.Records()[0]
	if rec.BeganNS != 5 {
		t.Fatalf("BeganNS = %d, want the relaunch time 5", rec.BeganNS)
	}
	for _, ev := range rec.Events {
		if ev.Note == "first_launch" {
			t.Fatal("stale pre-retry event survived the relaunch")
		}
	}
}

func TestRecorderMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	r := newRecorder(Config{Triggers: map[string]bool{"ghost": true}, EventCap: 4})
	r.BindMetrics(reg)
	record(r, targetAddr, "exact") // recycled
	record(r, otherAddr, "ghost")  // frozen
	if got := reg.Counter("flight.records_frozen").Value(); got != 1 {
		t.Fatalf("records_frozen = %d, want 1", got)
	}
	if got := reg.Counter("flight.slabs_recycled").Value(); got != 1 {
		t.Fatalf("slabs_recycled = %d, want 1", got)
	}
	if got := reg.Counter("flight.events_overwritten").Value(); got == 0 {
		t.Fatal("events_overwritten not counted despite a 4-slot ring")
	}
	if got := reg.Gauge("flight.slabs_active").Value(); got != 0 {
		t.Fatalf("slabs_active = %d, want 0 after both probes ended", got)
	}
}

func TestMaxRecordsEvictsOldest(t *testing.T) {
	r := newRecorder(Config{Triggers: map[string]bool{"all": true}, MaxRecords: 2})
	for a := wire.Addr(1); a <= 4; a++ {
		record(r, a, "exact")
	}
	recs := r.Records()
	if len(recs) != 2 {
		t.Fatalf("retained %d records, want 2", len(recs))
	}
	if recs[0].Target != wire.Addr(3).String() || recs[1].Target != wire.Addr(4).String() {
		t.Fatalf("retained %s and %s, want the newest two", recs[0].Target, recs[1].Target)
	}
	if r.TotalFrozen() != 4 {
		t.Fatalf("TotalFrozen = %d, want 4", r.TotalFrozen())
	}
}

func TestFingerprintKey(t *testing.T) {
	var nilRec *Recorder
	if nilRec.FingerprintKey() != "off" {
		t.Fatalf("nil recorder key = %q, want off", nilRec.FingerprintKey())
	}
	a := NewRecorder(Config{Triggers: map[string]bool{"ghost": true}}).FingerprintKey()
	b := NewRecorder(Config{Triggers: map[string]bool{"missed": true}}).FingerprintKey()
	c := NewRecorder(Config{Triggers: map[string]bool{"ghost": true}}).FingerprintKey()
	if a == b {
		t.Fatal("different trigger sets share a fingerprint key")
	}
	if a != c {
		t.Fatal("equal configs disagree on the fingerprint key")
	}
	// Map iteration order must not leak in.
	d := NewRecorder(Config{Triggers: map[string]bool{"ghost": true, "missed": true, "error": true}})
	for i := 0; i < 10; i++ {
		e := NewRecorder(Config{Triggers: map[string]bool{"error": true, "ghost": true, "missed": true}})
		if d.FingerprintKey() != e.FingerprintKey() {
			t.Fatal("fingerprint key depends on map iteration order")
		}
	}
}

func TestTraceEventExportValidates(t *testing.T) {
	r := newRecorder(Config{Triggers: map[string]bool{"all": true}})
	record(r, targetAddr, "underestimate")
	rec := r.Records()[0]
	var buf bytes.Buffer
	if err := rec.WriteTraceEvents(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := events.ValidateTraceEvents(buf.Bytes())
	if err != nil {
		t.Fatalf("export invalid: %v\n%s", err, buf.String())
	}
	if n < 5 {
		t.Fatalf("export has %d events, want the full journal", n)
	}
}

func TestNarrativeNamesDroppedPacket(t *testing.T) {
	r := newRecorder(Config{Triggers: map[string]bool{"all": true}})
	record(r, targetAddr, "missed")
	rec := r.Records()[0]
	var buf bytes.Buffer
	if err := rec.WriteNarrative(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The narrative must name the exact dropped packet: op, endpoints,
	// flags and sequence number.
	if !strings.Contains(out, "DROP loss") {
		t.Fatalf("narrative does not flag the drop:\n%s", out)
	}
	if !strings.Contains(out, "20.0.0.7.80 > 198.18.0.1.4000: Flags [S.], seq 9") {
		t.Fatalf("narrative does not identify the dropped SYN/ACK:\n%s", out)
	}
	if !strings.Contains(out, "verdict: missed") || !strings.Contains(out, "test detail") {
		t.Fatalf("narrative missing verdict/detail:\n%s", out)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := newRecorder(Config{Dir: dir, Triggers: map[string]bool{"all": true}})
	record(r, targetAddr, "exact")
	if err := r.WriteErr(); err != nil {
		t.Fatal(err)
	}
	if r.Written() != 1 {
		t.Fatalf("Written = %d, want 1", r.Written())
	}
	paths, err := filepath.Glob(filepath.Join(dir, "*.flight.json"))
	if err != nil || len(paths) != 1 {
		t.Fatalf("flight.json files = %v (err %v)", paths, err)
	}
	loaded, err := Load(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	orig := r.Records()[0]
	if loaded.Target != orig.Target || loaded.Verdict != orig.Verdict ||
		len(loaded.Events) != len(orig.Events) {
		t.Fatalf("round trip changed the record: %+v vs %+v", loaded, orig)
	}
	// The pcap sidecar restores the raw packets.
	if len(loaded.Packets) != len(orig.Packets) {
		t.Fatalf("loaded %d packets, want %d", len(loaded.Packets), len(orig.Packets))
	}
	for i := range loaded.Packets {
		if !bytes.Equal(loaded.Packets[i].Data, orig.Packets[i].Data) {
			t.Fatalf("packet %d diverged through the pcap sidecar", i)
		}
	}
}

func TestMaxWritesBoundsDirectory(t *testing.T) {
	dir := t.TempDir()
	r := newRecorder(Config{Dir: dir, Triggers: map[string]bool{"all": true}, MaxWrites: 2})
	for a := wire.Addr(1); a <= 5; a++ {
		record(r, a, "exact")
	}
	paths, _ := filepath.Glob(filepath.Join(dir, "*.flight.json"))
	if len(paths) != 2 {
		t.Fatalf("wrote %d records, want the MaxWrites cap 2", len(paths))
	}
	if r.TotalFrozen() != 5 {
		t.Fatalf("TotalFrozen = %d, want 5 (freezing continues in memory)", r.TotalFrozen())
	}
}

// TestConcurrentSlabRecycling exercises the process-wide slab pool from
// several recorders at once — the cross-probe ownership hand-off that
// the race detector must bless (satellite of the PR's race-test suite).
func TestConcurrentSlabRecycling(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := newRecorder(Config{
				Triggers: map[string]bool{"ghost": true},
				EventCap: 32, PacketBytes: 4096,
			})
			for i := 0; i < 300; i++ {
				target := wire.Addr(uint32(w)<<16 | uint32(i) + 1)
				verdict := "exact"
				if i%3 == 0 {
					verdict = "ghost"
				}
				record(r, target, verdict)
			}
			if got := int(r.TotalFrozen()); got != 100 {
				t.Errorf("worker %d froze %d, want 100", w, got)
			}
			// Frozen records must own their storage: slab reuse by a
			// concurrent worker may not mutate them.
			for _, rec := range r.Records() {
				if rec.Verdict != "ghost" {
					t.Errorf("worker %d: record verdict %q, want ghost", w, rec.Verdict)
				}
				if last := rec.Events[len(rec.Events)-1]; last.Type != "verdict" || last.Note != "ghost" {
					t.Errorf("worker %d: final event %+v, want the ghost verdict", w, last)
				}
				for _, p := range rec.Packets {
					ip, _, err := wire.DecodeIPv4(p.Data)
					if err != nil || (ip.Src.String() != rec.Target && ip.Dst.String() != rec.Target) {
						t.Errorf("worker %d: packet does not belong to %s (err %v)", w, rec.Target, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
