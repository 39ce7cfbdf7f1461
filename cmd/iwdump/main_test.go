package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iwscan/internal/flight"
	"iwscan/internal/httpsim"
	"iwscan/internal/netsim"
	"iwscan/internal/tlssim"
	"iwscan/internal/wire"
)

var (
	cliAddr = wire.MustParseAddr("192.0.2.1")
	srvAddr = wire.MustParseAddr("198.51.100.10")
)

func tcpPacket(src, dst wire.Addr, h *wire.TCPHeader, payload []byte) []byte {
	seg := wire.EncodeTCP(nil, src, dst, h, payload)
	return wire.EncodeIPv4(nil, &wire.IPv4Header{Protocol: wire.ProtoTCP, Src: src, Dst: dst}, seg)
}

func TestFormatPacketTCP(t *testing.T) {
	h := wire.NewTCPHeader()
	h.SrcPort = 12345
	h.DstPort = 80
	h.Seq = 100
	h.Flags = wire.FlagSYN
	h.MSS = 64
	h.Window = 65535
	line := formatPacket(flight.Captured{At: netsim.Second, Data: tcpPacket(cliAddr, srvAddr, h, nil)})
	for _, want := range []string{"192.0.2.1.12345", "198.51.100.10.80", "Flags [S]", "mss 64"} {
		if !strings.Contains(line, want) {
			t.Fatalf("line %q missing %q", line, want)
		}
	}
}

func TestFormatPacketHTTPAnnotation(t *testing.T) {
	h := wire.NewTCPHeader()
	h.Flags = wire.FlagACK | wire.FlagPSH
	req := httpsim.BuildRequest("/", "example.org", "Connection", "close")
	line := formatPacket(flight.Captured{Data: tcpPacket(cliAddr, srvAddr, h, req)})
	if !strings.Contains(line, `"GET / HTTP/1.1"`) {
		t.Fatalf("HTTP annotation missing: %q", line)
	}
}

func TestFormatPacketTLSAnnotation(t *testing.T) {
	h := wire.NewTCPHeader()
	h.Flags = wire.FlagACK
	hello := tlssim.EncodeRecord(nil, tlssim.Record{Type: tlssim.RecordHandshake, Version: tlssim.VersionTLS12, Payload: []byte{tlssim.HandshakeClientHello, 0, 0, 0}})
	line := formatPacket(flight.Captured{Data: tcpPacket(cliAddr, srvAddr, h, hello)})
	if !strings.Contains(line, "TLS handshake") {
		t.Fatalf("TLS annotation missing: %q", line)
	}
}

func TestFormatPacketICMP(t *testing.T) {
	msg := wire.EncodeICMP(nil, &wire.ICMPHeader{Type: wire.ICMPEchoRequest, ID: 1, Seq: 2})
	pkt := wire.EncodeIPv4(nil, &wire.IPv4Header{Protocol: wire.ProtoICMP, Src: cliAddr, Dst: srvAddr}, msg)
	line := formatPacket(flight.Captured{Data: pkt})
	if !strings.Contains(line, "ICMP type 8") {
		t.Fatalf("ICMP line: %q", line)
	}
}

func TestFormatPacketMalformed(t *testing.T) {
	line := formatPacket(flight.Captured{Data: []byte{1, 2, 3}})
	if !strings.Contains(line, "malformed") {
		t.Fatalf("line: %q", line)
	}
}

// TestDumpStreamsCapture: dump renders one line per packet in capture
// order, -host keeps only that host's packets, and a corrupt record
// fails the dump after the lines before it are written.
func TestDumpStreamsCapture(t *testing.T) {
	other := wire.MustParseAddr("203.0.113.9")
	h := wire.NewTCPHeader()
	h.Flags = wire.FlagSYN
	var buf bytes.Buffer
	pw := flight.NewPcapWriter(&buf)
	pw.Write(1*netsim.Millisecond, tcpPacket(cliAddr, srvAddr, h, nil))
	pw.Write(2*netsim.Millisecond, tcpPacket(cliAddr, other, h, nil))
	pw.Write(3*netsim.Millisecond, tcpPacket(srvAddr, cliAddr, h, nil))
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.pcap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	lines := func(host string) []string {
		var out bytes.Buffer
		if err := dump(&out, path, host); err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	}
	all := lines("")
	if len(all) != 3 || !strings.Contains(all[1], other.String()) {
		t.Fatalf("full dump = %q, want 3 lines in capture order", all)
	}
	if got := lines(srvAddr.String()); len(got) != 2 || got[0] != all[0] || got[1] != all[2] {
		t.Fatalf("-host dump = %q, want lines 1 and 3 of %q", got, all)
	}

	// Cut the capture inside the last record.
	if err := os.WriteFile(path, buf.Bytes()[:len(buf.Bytes())-50], 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := dump(&out, path, ""); err == nil {
		t.Fatal("torn capture dumped without error")
	}
	if out.String() != all[0]+"\n"+all[1]+"\n" {
		t.Fatalf("torn dump wrote %q, want the two complete records", out.String())
	}
}
