package wire

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestAddrRoundTrip(t *testing.T) {
	for _, s := range []string{"0.0.0.0", "192.0.2.1", "255.255.255.255", "10.1.2.3"} {
		a, err := ParseAddr(s)
		if err != nil {
			t.Fatalf("ParseAddr(%q): %v", s, err)
		}
		if a.String() != s {
			t.Fatalf("round trip %q -> %q", s, a.String())
		}
	}
}

// TestAddrAppendTo: AppendTo renders what fmt's dotted quad does, after
// whatever dst holds, without allocating into a buffer with room.
func TestAddrAppendTo(t *testing.T) {
	buf := make([]byte, 0, 32)
	for _, a := range []Addr{0, 0xffffffff, 0xc0000201, 0x0a000a64, AddrFrom4(9, 99, 100, 0)} {
		want := fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
		if got := string(a.AppendTo([]byte("x"))); got != "x"+want {
			t.Errorf("AppendTo(%#x) = %q, want %q", uint32(a), got, "x"+want)
		}
		if allocs := testing.AllocsPerRun(10, func() { buf = a.AppendTo(buf[:0]) }); allocs != 0 {
			t.Errorf("AppendTo(%#x) allocated %.0f times", uint32(a), allocs)
		}
	}
}

func TestParseAddrErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"} {
		if _, err := ParseAddr(s); err == nil {
			t.Fatalf("ParseAddr(%q) unexpectedly succeeded", s)
		}
	}
}

func TestAddrFrom4(t *testing.T) {
	a := AddrFrom4(192, 0, 2, 1)
	if a != 0xc0000201 {
		t.Fatalf("AddrFrom4 = %#x", uint32(a))
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("10.20.0.0/16")
	if !p.Contains(MustParseAddr("10.20.255.255")) {
		t.Fatal("should contain last address")
	}
	if p.Contains(MustParseAddr("10.21.0.0")) {
		t.Fatal("should not contain next prefix")
	}
	if p.Size() != 65536 {
		t.Fatalf("size = %d", p.Size())
	}
	if p.Nth(5) != MustParseAddr("10.20.0.5") {
		t.Fatalf("Nth(5) = %s", p.Nth(5))
	}
}

func TestPrefixNormalizesHostBits(t *testing.T) {
	p := MustParsePrefix("10.20.30.40/16")
	if p.Addr != MustParseAddr("10.20.0.0") {
		t.Fatalf("prefix not normalized: %s", p)
	}
}

func TestPrefixZeroBits(t *testing.T) {
	p := Prefix{Addr: 0, Bits: 0}
	if !p.Contains(MustParseAddr("255.1.2.3")) {
		t.Fatal("0/0 should contain everything")
	}
	if p.Size() != 1<<32 {
		t.Fatalf("size = %d", p.Size())
	}
}

func TestParsePrefixErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3.4", "1.2.3.4/33", "1.2.3.4/-1", "x/8"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Fatalf("ParsePrefix(%q) unexpectedly succeeded", s)
		}
	}
}

func TestChecksumRFC1071Example(t *testing.T) {
	// Classic example from RFC 1071 §3.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	b := []byte{0x01, 0x02, 0x03}
	got := Checksum(b)
	// Manually: 0x0102 + 0x0300 = 0x0402 -> ^0x0402
	if got != ^uint16(0x0402) {
		t.Fatalf("odd checksum = %#x", got)
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := &IPv4Header{
		TOS:      0,
		ID:       0x1234,
		Flags:    IPFlagDF,
		TTL:      64,
		Protocol: ProtoTCP,
		Src:      MustParseAddr("192.0.2.1"),
		Dst:      MustParseAddr("198.51.100.7"),
	}
	payload := []byte("hello world")
	pkt := EncodeIPv4(nil, h, payload)
	got, gotPayload, err := DecodeIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != h.Src || got.Dst != h.Dst || got.Protocol != ProtoTCP || got.ID != 0x1234 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.Flags != IPFlagDF {
		t.Fatalf("flags = %x", got.Flags)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatalf("payload mismatch: %q", gotPayload)
	}
	if int(got.TotalLen) != len(pkt) {
		t.Fatalf("total length = %d, packet = %d", got.TotalLen, len(pkt))
	}
}

func TestIPv4ChecksumValidation(t *testing.T) {
	h := &IPv4Header{Protocol: ProtoTCP, Src: 1, Dst: 2}
	pkt := EncodeIPv4(nil, h, nil)
	pkt[12] ^= 0xff // corrupt source address
	if _, _, err := DecodeIPv4(pkt); err != ErrBadChecksum {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

func TestIPv4Truncated(t *testing.T) {
	if _, _, err := DecodeIPv4([]byte{0x45, 0}); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestIPv4BadVersion(t *testing.T) {
	pkt := EncodeIPv4(nil, &IPv4Header{Protocol: ProtoTCP}, nil)
	pkt[0] = 0x65 // version 6
	if _, _, err := DecodeIPv4(pkt); err != ErrBadVersion {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestTCPRoundTripWithOptions(t *testing.T) {
	src, dst := MustParseAddr("192.0.2.1"), MustParseAddr("198.51.100.7")
	h := NewTCPHeader()
	h.SrcPort = 54321
	h.DstPort = 80
	h.Seq = 0xdeadbeef
	h.Ack = 0x01020304
	h.Flags = FlagSYN
	h.Window = 65535
	h.MSS = 64
	h.WindowScale = 7
	h.SACKPermitted = true
	payload := []byte("GET / HTTP/1.1\r\n\r\n")
	seg := EncodeTCP(nil, src, dst, h, payload)
	got, gotPayload, err := DecodeTCP(src, dst, seg)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 54321 || got.DstPort != 80 || got.Seq != 0xdeadbeef || got.Ack != 0x01020304 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.MSS != 64 {
		t.Fatalf("MSS = %d", got.MSS)
	}
	if got.WindowScale != 7 {
		t.Fatalf("wscale = %d", got.WindowScale)
	}
	if !got.SACKPermitted {
		t.Fatal("SACK-permitted lost")
	}
	if !got.HasFlag(FlagSYN) || got.HasFlag(FlagACK) {
		t.Fatalf("flags = %x", got.Flags)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatalf("payload mismatch: %q", gotPayload)
	}
}

func TestTCPNoOptions(t *testing.T) {
	src, dst := Addr(1), Addr(2)
	h := NewTCPHeader()
	h.Flags = FlagACK
	seg := EncodeTCP(nil, src, dst, h, nil)
	if len(seg) != TCPHeaderLen {
		t.Fatalf("segment length = %d, want %d", len(seg), TCPHeaderLen)
	}
	got, _, err := DecodeTCP(src, dst, seg)
	if err != nil {
		t.Fatal(err)
	}
	if got.MSS != 0 || got.WindowScale != -1 || got.SACKPermitted {
		t.Fatalf("spurious options: %+v", got)
	}
}

func TestTCPTimestamps(t *testing.T) {
	src, dst := Addr(1), Addr(2)
	h := NewTCPHeader()
	h.Flags = FlagACK
	h.HasTimestamps = true
	h.TSVal = 111
	h.TSEcr = 222
	seg := EncodeTCP(nil, src, dst, h, nil)
	got, _, err := DecodeTCP(src, dst, seg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasTimestamps || got.TSVal != 111 || got.TSEcr != 222 {
		t.Fatalf("timestamps: %+v", got)
	}
}

func TestTCPChecksumValidation(t *testing.T) {
	src, dst := Addr(1), Addr(2)
	h := NewTCPHeader()
	h.Flags = FlagSYN
	seg := EncodeTCP(nil, src, dst, h, []byte("x"))
	seg[len(seg)-1] ^= 0xff
	if _, _, err := DecodeTCP(src, dst, seg); err != ErrBadChecksum {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
	// Checksum binds the pseudo-header: decoding with wrong addresses fails.
	good := EncodeTCP(nil, src, dst, h, nil)
	if _, _, err := DecodeTCP(src, Addr(3), good); err != ErrBadChecksum {
		t.Fatalf("pseudo-header not covered: err = %v", err)
	}
}

func TestTCPTruncated(t *testing.T) {
	if _, _, err := DecodeTCP(1, 2, make([]byte, 10)); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// Data offset beyond segment.
	seg := make([]byte, TCPHeaderLen)
	seg[12] = 0xf0
	if _, _, err := DecodeTCP(1, 2, seg); err != ErrTruncated {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestSeqComparisons(t *testing.T) {
	if !SeqLT(1, 2) || SeqLT(2, 1) {
		t.Fatal("basic SeqLT wrong")
	}
	// Wraparound: 0xffffffff < 0 < 1 in sequence space.
	if !SeqLT(0xffffffff, 0) {
		t.Fatal("wraparound SeqLT wrong")
	}
	if !SeqGT(5, 0xfffffff0) {
		t.Fatal("wraparound SeqGT wrong")
	}
	if !SeqLEQ(7, 7) || !SeqGEQ(7, 7) {
		t.Fatal("equality comparisons wrong")
	}
}

func TestICMPRoundTripEcho(t *testing.T) {
	h := &ICMPHeader{Type: ICMPEchoRequest, ID: 42, Seq: 7, Body: []byte("ping")}
	msg := EncodeICMP(nil, h)
	got, err := DecodeICMP(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != ICMPEchoRequest || got.ID != 42 || got.Seq != 7 || !bytes.Equal(got.Body, []byte("ping")) {
		t.Fatalf("mismatch: %+v", got)
	}
}

func TestICMPFragNeeded(t *testing.T) {
	h := &ICMPHeader{Type: ICMPDestUnreach, Code: ICMPCodeFragNeeded, NextHopMTU: 1400}
	msg := EncodeICMP(nil, h)
	got, err := DecodeICMP(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextHopMTU != 1400 || got.Code != ICMPCodeFragNeeded {
		t.Fatalf("mismatch: %+v", got)
	}
}

func TestICMPBadChecksum(t *testing.T) {
	msg := EncodeICMP(nil, &ICMPHeader{Type: ICMPEchoRequest})
	msg[0] = ICMPEchoReply
	if _, err := DecodeICMP(msg); err != ErrBadChecksum {
		t.Fatalf("err = %v, want ErrBadChecksum", err)
	}
}

// Property: any encoded IPv4+TCP packet decodes back to the same values.
func TestTCPEncodeDecodeProperty(t *testing.T) {
	f := func(srcPort, dstPort uint16, seq, ack uint32, flags byte, window uint16, mss uint16, payload []byte) bool {
		if len(payload) > 1200 {
			payload = payload[:1200]
		}
		src, dst := Addr(0x0a000001), Addr(0x0a000002)
		h := NewTCPHeader()
		h.SrcPort = srcPort
		h.DstPort = dstPort
		h.Seq = seq
		h.Ack = ack
		h.Flags = flags
		h.Window = window
		h.MSS = mss
		seg := EncodeTCP(nil, src, dst, h, payload)
		got, gotPayload, err := DecodeTCP(src, dst, seg)
		if err != nil {
			return false
		}
		return got.SrcPort == srcPort && got.DstPort == dstPort &&
			got.Seq == seq && got.Ack == ack && got.Flags == flags &&
			got.Window == window && got.MSS == mss &&
			bytes.Equal(gotPayload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: corrupting any single byte of an encoded IPv4 header is
// detected by the checksum (unless it hits the checksum's own redundancy,
// which single-byte flips cannot).
func TestIPv4ChecksumDetectsFlips(t *testing.T) {
	h := &IPv4Header{Protocol: ProtoTCP, Src: MustParseAddr("1.2.3.4"), Dst: MustParseAddr("5.6.7.8"), ID: 99}
	pkt := EncodeIPv4(nil, h, nil)
	for i := 1; i < IPv4HeaderLen; i++ { // skip byte 0: version corruption reports ErrBadVersion
		mut := append([]byte(nil), pkt...)
		mut[i] ^= 0x55
		if _, _, err := DecodeIPv4(mut); err == nil {
			t.Fatalf("flip at byte %d undetected", i)
		}
	}
}

func TestEncodeIPv4DefaultTTL(t *testing.T) {
	pkt := EncodeIPv4(nil, &IPv4Header{Protocol: ProtoTCP}, nil)
	h, _, err := DecodeIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if h.TTL != 64 {
		t.Fatalf("default TTL = %d, want 64", h.TTL)
	}
}
