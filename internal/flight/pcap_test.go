package flight

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"iwscan/internal/core"
	"iwscan/internal/httpsim"
	"iwscan/internal/netsim"
	"iwscan/internal/tcpstack"
	"iwscan/internal/wire"
)

// captureProbe runs one complete HTTP probe exchange with a recorder
// that has no freeze rule as the network's packet tap, and returns the
// capture's bytes and the number of packets the network accepted.
func captureProbe(t *testing.T) ([]byte, int64) {
	t.Helper()
	var buf bytes.Buffer
	pw := NewPcapWriter(&buf)
	n := netsim.New(5)
	n.SetPath(netsim.PathParams{Delay: 10 * netsim.Millisecond})
	NewRecorder(Config{Pcap: pw}).Attach(n, scannerAddr)
	host := tcpstack.NewHost(n, targetAddr, tcpstack.Config{
		IW:  tcpstack.IWPolicy{Kind: tcpstack.IWSegments, Segments: 4},
		MSS: tcpstack.MSSPolicy{Floor: 64},
	})
	host.Listen(80, httpsim.NewServer(httpsim.ServerConfig{Root: httpsim.BehaviorPage, PageLen: 4000}))
	sc := core.NewScanner(n, scannerAddr, core.Config{Seed: 2})
	sc.ProbeTarget(targetAddr, core.TargetConfig{Strategy: core.StrategyHTTP, MSSList: []int{64}}, func(*core.TargetResult) {})
	n.RunUntilIdle()
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	if pw.Packets() != n.Stats().PacketsSent {
		t.Fatalf("tap wrote %d packets, network sent %d", pw.Packets(), n.Stats().PacketsSent)
	}
	return buf.Bytes(), n.Stats().PacketsSent
}

func TestRecorderCapturesExchange(t *testing.T) {
	b, sent := captureProbe(t)
	pkts, err := ReadPcap(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) < 10 || int64(len(pkts)) != sent {
		t.Fatalf("captured %d packets of %d sent, want a full probe exchange", len(pkts), sent)
	}
	// First packet is the SYN with MSS 64.
	ip, payload, err := wire.DecodeIPv4(pkts[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	tcp, _, err := wire.DecodeTCP(ip.Src, ip.Dst, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !tcp.HasFlag(wire.FlagSYN) || tcp.MSS != 64 {
		t.Fatalf("first packet not the MSS-64 SYN: %+v", tcp)
	}
	// Timestamps are non-decreasing.
	for i := 1; i < len(pkts); i++ {
		if pkts[i].At < pkts[i-1].At {
			t.Fatal("capture order broken")
		}
	}
}

// TestTapOnlyRecorder: a recorder with no freeze rule costs only the
// Pcap tap. Begin opens no slab, the checkpoint fingerprint reads "off"
// (so adding -pcap never invalidates a checkpoint), and writing a sent
// packet into a buffered capture allocates nothing.
func TestTapOnlyRecorder(t *testing.T) {
	r := newRecorder(Config{Dir: t.TempDir(), Seed: 7, Pcap: NewPcapWriter(bufio.NewWriter(io.Discard))})
	r.Begin(0, targetAddr)
	if r.ActiveSlabs() != 0 {
		t.Fatalf("Begin opened %d slabs without a freeze rule", r.ActiveSlabs())
	}
	if key := r.FingerprintKey(); key != "off" {
		t.Fatalf("FingerprintKey = %q, want off", key)
	}
	pkt := tcpPkt(scannerAddr, targetAddr, 4000, 80, wire.FlagACK, 1, make([]byte, 64))
	at := netsim.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		at += netsim.Microsecond
		r.PacketEvent(netsim.OpSend, at, pkt)
	})
	if allocs != 0 {
		t.Fatalf("tap allocates %.2f times per packet, want 0", allocs)
	}
}

func TestPcapRoundTrip(t *testing.T) {
	pkts := []Captured{
		{At: 0, Data: tcpPkt(scannerAddr, targetAddr, 4000, 80, wire.FlagSYN, 1, nil)},
		{At: 1500 * netsim.Microsecond, Data: tcpPkt(targetAddr, scannerAddr, 80, 4000, wire.FlagSYN|wire.FlagACK, 9, nil)},
		{At: 3*netsim.Second + 7*netsim.Microsecond, Data: tcpPkt(targetAddr, scannerAddr, 80, 4000, wire.FlagACK, 10, make([]byte, 64))},
	}
	var buf bytes.Buffer
	pw := NewPcapWriter(&buf)
	for _, p := range pkts {
		pw.Write(p.At, p.Data)
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("round trip lost packets: %d vs %d", len(got), len(pkts))
	}
	for i := range got {
		if got[i].At != pkts[i].At || !bytes.Equal(got[i].Data, pkts[i].Data) {
			t.Fatalf("packet %d: got %v/%x, want %v/%x", i, got[i].At, got[i].Data, pkts[i].At, pkts[i].Data)
		}
	}
}

func TestPcapHeaderFields(t *testing.T) {
	var buf bytes.Buffer
	if err := NewPcapWriter(&buf).Flush(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != pcapHeaderLen {
		t.Fatalf("empty capture header length %d", len(b))
	}
	if b[0] != 0xd4 || b[1] != 0xc3 || b[2] != 0xb2 || b[3] != 0xa1 {
		t.Fatal("pcap magic wrong")
	}
	if b[20] != 101 {
		t.Fatalf("link type %d, want 101 (RAW)", b[20])
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		w := f.n
		f.n = 0
		return w, errDiskFull
	}
	f.n -= len(p)
	return len(p), nil
}

func TestPcapWriterErrorIsSticky(t *testing.T) {
	pw := NewPcapWriter(&failAfter{n: 100})
	pkt := tcpPkt(scannerAddr, targetAddr, 4000, 80, wire.FlagACK, 1, make([]byte, 64))
	const n = 100 // past one buffer's worth, so the error surfaces mid-stream
	for i := 0; i < n; i++ {
		pw.Write(netsim.Time(i), pkt)
	}
	if err := pw.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Flush = %v, want the write error", err)
	}
	if pw.Packets() >= n {
		t.Fatalf("Packets = %d, want the writes after the error dropped", pw.Packets())
	}
	if err := pw.Flush(); !errors.Is(err, errDiskFull) {
		t.Fatalf("second Flush = %v, want the same error", err)
	}
}

func TestReadPcapRejectsGarbage(t *testing.T) {
	if _, err := ReadPcap(strings.NewReader("not a pcap file, definitely")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// validPcap returns a real probe capture's raw bytes so tests can
// corrupt individual header fields.
func validPcap(t *testing.T) []byte {
	t.Helper()
	b, _ := captureProbe(t)
	return b
}

// putU32 overwrites the little-endian uint32 at off.
func putU32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }

// Offsets of the first record's header fields.
const (
	rec0Usec = pcapHeaderLen + 4
	rec0Incl = pcapHeaderLen + 8
	rec0Orig = pcapHeaderLen + 12
)

func TestReadPcapRejectsWrongVersion(t *testing.T) {
	b := validPcap(t)
	b[4] = 3 // version_major: 3.4 instead of 2.4
	if _, err := ReadPcap(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong version accepted (err=%v)", err)
	}
	b = validPcap(t)
	b[6] = 2 // version_minor
	if _, err := ReadPcap(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("wrong minor version accepted (err=%v)", err)
	}
}

func TestReadPcapRejectsWrongLinkType(t *testing.T) {
	b := validPcap(t)
	b[20] = 1 // LINKTYPE_ETHERNET: records would not start with an IPv4 header
	if _, err := ReadPcap(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "link type") {
		t.Fatalf("ethernet link type accepted (err=%v)", err)
	}
}

func TestReadPcapRejectsSnappedRecord(t *testing.T) {
	b := validPcap(t)
	// orig_len > incl_len, as a snap-length capture has.
	putU32(b, rec0Orig, binary.LittleEndian.Uint32(b[rec0Orig:])+100)
	if _, err := ReadPcap(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "snapped") {
		t.Fatalf("snapped record accepted (err=%v)", err)
	}
}

func TestReadPcapRejectsOversizedRecord(t *testing.T) {
	b := validPcap(t)
	// Claim both lengths are beyond the snap length.
	putU32(b, rec0Incl, 70000)
	putU32(b, rec0Orig, 70000)
	if _, err := ReadPcap(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "oversized") {
		t.Fatalf("oversized record accepted (err=%v)", err)
	}
}

// TestReadPcapRejectsBadRecords: a microseconds field of a whole second
// or more has no canonical encoding, and a record header whose body is
// missing is a torn file, not its end.
func TestReadPcapRejectsBadRecords(t *testing.T) {
	b := validPcap(t)
	putU32(b, rec0Usec, 1e6)
	if _, err := ReadPcap(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "timestamp") {
		t.Fatalf("1e6 microseconds accepted (err=%v)", err)
	}
	b = validPcap(t)
	if _, err := ReadPcap(bytes.NewReader(b[:pcapHeaderLen+pcapRecordLen])); err != io.ErrUnexpectedEOF {
		t.Fatalf("record without body: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

// FuzzReadPcap: ReadPcap never panics, and whatever it accepts re-reads
// identically after PcapWriter re-encodes it.
func FuzzReadPcap(f *testing.F) {
	var empty bytes.Buffer
	NewPcapWriter(&empty).Flush()
	f.Add(empty.Bytes())
	f.Add([]byte("not a pcap file, definitely"))
	var probe bytes.Buffer
	pw := NewPcapWriter(&probe)
	pw.Write(netsim.Second+3*netsim.Microsecond, tcpPkt(scannerAddr, targetAddr, 4000, 80, wire.FlagSYN, 1, nil))
	pw.Write(2*netsim.Second, tcpPkt(targetAddr, scannerAddr, 80, 4000, wire.FlagACK, 9, []byte("HTTP/1.1 200 OK\r\n")))
	pw.Flush()
	valid := probe.Bytes()
	f.Add(valid)
	// The rejection cases above, applied to the seed capture.
	for _, corrupt := range []func(b []byte){
		func(b []byte) { b[4] = 3 },
		func(b []byte) { b[6] = 2 },
		func(b []byte) { b[20] = 1 },
		func(b []byte) { putU32(b, rec0Orig, 1000) },
		func(b []byte) { putU32(b, rec0Incl, 70000); putU32(b, rec0Orig, 70000) },
		func(b []byte) { putU32(b, rec0Usec, 1e6) },
	} {
		b := bytes.Clone(valid)
		corrupt(b)
		f.Add(b)
	}
	f.Add(valid[:pcapHeaderLen+pcapRecordLen])
	f.Fuzz(func(t *testing.T, b []byte) {
		pkts, err := ReadPcap(bytes.NewReader(b))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		pw := NewPcapWriter(&buf)
		for _, p := range pkts {
			pw.Write(p.At, p.Data)
		}
		if err := pw.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := ReadPcap(&buf)
		if err != nil {
			t.Fatalf("re-encoded capture rejected: %v", err)
		}
		if len(again) != len(pkts) {
			t.Fatalf("re-read %d packets, want %d", len(again), len(pkts))
		}
		for i := range pkts {
			if again[i].At != pkts[i].At || !bytes.Equal(again[i].Data, pkts[i].Data) {
				t.Fatalf("packet %d changed through re-encoding", i)
			}
		}
	})
}
