package tlssim

import (
	"bytes"
	"testing"
	"testing/quick"

	"iwscan/internal/stats"
)

func TestRecordRoundTrip(t *testing.T) {
	r := Record{Type: RecordHandshake, Version: VersionTLS12, Payload: []byte("hello")}
	b := EncodeRecord(nil, r)
	got, n, err := DecodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d, want %d", n, len(b))
	}
	if got.Type != r.Type || got.Version != r.Version || !bytes.Equal(got.Payload, r.Payload) {
		t.Fatalf("mismatch: %+v", got)
	}
}

func TestRecordTruncated(t *testing.T) {
	b := EncodeRecord(nil, Record{Type: RecordAlert, Version: VersionTLS12, Payload: []byte{1, 2}})
	if _, _, err := DecodeRecord(b[:6]); err != ErrTruncated {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := DecodeRecord(b[:3]); err != ErrTruncated {
		t.Fatalf("err = %v", err)
	}
}

func TestRecordOversizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for oversized record")
		}
	}()
	EncodeRecord(nil, Record{Payload: make([]byte, MaxRecordLen+1)})
}

func TestRecordOversizeRejectedOnDecode(t *testing.T) {
	b := []byte{RecordHandshake, 3, 3, 0xff, 0xff}
	b = append(b, make([]byte, 0xffff)...)
	if _, _, err := DecodeRecord(b); err != ErrBadFormat {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	h := Handshake{Type: HandshakeCertificate, Body: bytes.Repeat([]byte("c"), 70000)}
	b := EncodeHandshake(nil, h)
	got, n, err := DecodeHandshake(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) || got.Type != h.Type || !bytes.Equal(got.Body, h.Body) {
		t.Fatal("handshake round trip failed")
	}
}

func TestAlertRoundTrip(t *testing.T) {
	b := EncodeAlertRecord(nil, Alert{Level: AlertLevelFatal, Desc: AlertHandshakeFailure})
	rec, _, err := DecodeRecord(b)
	if err != nil || rec.Type != RecordAlert {
		t.Fatalf("record: %v %+v", err, rec)
	}
	a, err := DecodeAlert(rec.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if a.Level != AlertLevelFatal || a.Desc != AlertHandshakeFailure {
		t.Fatalf("alert = %+v", a)
	}
}

func TestClientHelloRoundTrip(t *testing.T) {
	ch := &ClientHello{
		Version:      VersionTLS12,
		SessionID:    []byte{9, 8, 7},
		CipherSuites: DefaultCipherSuites,
		Extensions: []Extension{
			StatusRequestExtension(),
			SNIExtension("example.org"),
		},
	}
	ch.Random[0] = 0xaa
	ch.Random[31] = 0xbb
	got, err := DecodeClientHello(EncodeClientHello(ch))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != VersionTLS12 || got.Random != ch.Random {
		t.Fatalf("version/random mismatch")
	}
	if !bytes.Equal(got.SessionID, ch.SessionID) {
		t.Fatal("session ID mismatch")
	}
	if len(got.CipherSuites) != len(DefaultCipherSuites) {
		t.Fatalf("suites = %d", len(got.CipherSuites))
	}
	if !got.HasExtension(ExtServerName) || !got.HasExtension(ExtStatusRequest) {
		t.Fatal("extensions lost")
	}
	e, _ := got.Extension(ExtServerName)
	if SNIHostname(e) != "example.org" {
		t.Fatalf("SNI = %q", SNIHostname(e))
	}
}

func TestClientHelloNoExtensions(t *testing.T) {
	ch := &ClientHello{Version: VersionTLS12, CipherSuites: []uint16{0x002f}}
	got, err := DecodeClientHello(EncodeClientHello(ch))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Extensions) != 0 {
		t.Fatalf("spurious extensions: %v", got.Extensions)
	}
	if !got.OffersCipher(0x002f) || got.OffersCipher(0xc030) {
		t.Fatal("OffersCipher wrong")
	}
}

func TestServerHelloRoundTrip(t *testing.T) {
	sh := &ServerHello{Version: VersionTLS12, CipherSuite: 0xc02f, SessionID: []byte{1}}
	got, err := DecodeServerHello(EncodeServerHello(sh))
	if err != nil {
		t.Fatal(err)
	}
	if got.CipherSuite != 0xc02f || !bytes.Equal(got.SessionID, []byte{1}) {
		t.Fatalf("mismatch: %+v", got)
	}
}

func TestCertificateChainRoundTrip(t *testing.T) {
	certs := [][]byte{bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 200)}
	got, err := DecodeCertificateChain(EncodeCertificateChain(certs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !bytes.Equal(got[0], certs[0]) || !bytes.Equal(got[1], certs[1]) {
		t.Fatal("chain round trip failed")
	}
}

func TestChainWireLen(t *testing.T) {
	certs := [][]byte{make([]byte, 100), make([]byte, 200)}
	body := EncodeCertificateChain(certs)
	if got := ChainWireLen([]int{100, 200}); got != len(body) {
		t.Fatalf("ChainWireLen = %d, want %d", got, len(body))
	}
}

func TestGenerateChainLengths(t *testing.T) {
	rng := stats.NewRNG(5)
	for _, total := range []int{36, 500, 1000, 2186, 5000, 65000} {
		chain := GenerateChain(rng, total)
		sum := 0
		for _, c := range chain {
			sum += len(c)
		}
		if sum != total {
			t.Fatalf("total %d: chain sums to %d", total, sum)
		}
		if total >= 2200 && len(chain) != 3 {
			t.Fatalf("total %d: %d certs, want 3", total, len(chain))
		}
		for _, c := range chain {
			if len(c) >= 4 && c[0] != 0x30 {
				t.Fatal("cert does not start with DER SEQUENCE")
			}
		}
	}
}

func TestGenerateChainNonPositive(t *testing.T) {
	chain := GenerateChain(stats.NewRNG(1), 0)
	if len(chain) != 1 || len(chain[0]) != 36 {
		t.Fatal("zero-length chain not defaulted to minimum")
	}
}

func TestChainLenDistCalibration(t *testing.T) {
	var d ChainLenDist
	rng := stats.NewRNG(42)
	const n = 200000
	samples := make([]float64, n)
	above640, above2176 := 0, 0
	sum := 0.0
	for i := 0; i < n; i++ {
		v := d.SampleHash(rng.Uint64())
		if v < chainMin || v > chainMax {
			t.Fatalf("sample %d out of [36, 65000]", v)
		}
		samples[i] = float64(v)
		sum += float64(v)
		if v >= 640 {
			above640++
		}
		if v >= 2176 {
			above2176++
		}
	}
	mean := sum / n
	// Paper: mean 2186 B.
	if mean < 2000 || mean > 2400 {
		t.Fatalf("mean chain length = %v, want ~2186", mean)
	}
	// Paper: >86% of hosts supply >= 640 B of certificates.
	if f := float64(above640) / n; f < 0.84 || f > 0.89 {
		t.Fatalf("P(len>=640) = %v, want ~0.86", f)
	}
	// Paper: ~50% reachable even at IW 34 (2176 B).
	if f := float64(above2176) / n; f < 0.47 || f > 0.53 {
		t.Fatalf("P(len>=2176) = %v, want ~0.50", f)
	}
}

func TestChainLenDistDeterministic(t *testing.T) {
	var d ChainLenDist
	if d.SampleHash(777) != d.SampleHash(777) {
		t.Fatal("SampleHash not deterministic")
	}
}

func TestBuildClientHelloParses(t *testing.T) {
	b := BuildClientHello(stats.NewRNG(3), "")
	rec, n, err := DecodeRecord(b)
	if err != nil || n != len(b) {
		t.Fatalf("record: %v", err)
	}
	if rec.Type != RecordHandshake {
		t.Fatalf("type = %d", rec.Type)
	}
	hs, _, err := DecodeHandshake(rec.Payload)
	if err != nil || hs.Type != HandshakeClientHello {
		t.Fatalf("handshake: %v", err)
	}
	ch, err := DecodeClientHello(hs.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(ch.CipherSuites) != 40 {
		t.Fatalf("cipher suites = %d, want 40 (the paper's compiled list)", len(ch.CipherSuites))
	}
	if !ch.HasExtension(ExtStatusRequest) {
		t.Fatal("OCSP status_request missing")
	}
	if ch.HasExtension(ExtServerName) {
		t.Fatal("SNI present despite empty hostname")
	}
}

func TestBuildClientHelloWithSNI(t *testing.T) {
	b := BuildClientHello(stats.NewRNG(3), "www.example.com")
	rec, _, _ := DecodeRecord(b)
	hs, _, _ := DecodeHandshake(rec.Payload)
	ch, err := DecodeClientHello(hs.Body)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := ch.Extension(ExtServerName)
	if !ok || SNIHostname(e) != "www.example.com" {
		t.Fatal("SNI extension wrong")
	}
}

// referenceClientHello is the oracle AppendClientHello is held to: the
// hello built field by field and run through the structured encoders,
// with the random drawn first, one rng.Uint64 per byte.
func referenceClientHello(rng *stats.RNG, sni string) []byte {
	ch := &ClientHello{Version: VersionTLS12, CipherSuites: DefaultCipherSuites}
	for i := range ch.Random {
		ch.Random[i] = byte(rng.Uint64())
	}
	ch.Extensions = append(ch.Extensions, StatusRequestExtension())
	if sni != "" {
		ch.Extensions = append(ch.Extensions, SNIExtension(sni))
	}
	ch.Extensions = append(ch.Extensions,
		Extension{Type: ExtSignatureAlgs, Data: []byte{0x00, 0x08, 0x04, 0x01, 0x04, 0x03, 0x05, 0x01, 0x05, 0x03}},
		Extension{Type: ExtSupportedGrps, Data: []byte{0x00, 0x06, 0x00, 0x17, 0x00, 0x18, 0x00, 0x19}},
		Extension{Type: ExtECPointFmts, Data: []byte{0x01, 0x00}},
	)
	hs := EncodeHandshake(nil, Handshake{Type: HandshakeClientHello, Body: EncodeClientHello(ch)})
	return EncodeRecord(nil, Record{Type: RecordHandshake, Version: 0x0301, Payload: hs})
}

// TestAppendClientHelloMatchesReference: the hello with its random
// written in place afterwards — the template copy, or the SNI variant —
// is byte-identical to the structured composition with the random
// drawn first, for several seeds, appended to a fresh or a reused
// buffer, and it leaves the RNG where the reference leaves it.
func TestAppendClientHelloMatchesReference(t *testing.T) {
	long := string(bytes.Repeat([]byte("a"), 300)) // lengths past one byte
	buf := []byte("prefix")
	for seed := uint64(1); seed <= 5; seed++ {
		for _, sni := range []string{"", "example.org", "www.example.com", long} {
			want := referenceClientHello(stats.NewRNG(seed), sni)
			got := AppendClientHello(nil, stats.NewRNG(seed), sni)
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d sni %q:\n got %x\nwant %x", seed, sni, got, want)
			}
			ref, rng := stats.NewRNG(seed), stats.NewRNG(seed)
			referenceClientHello(ref, sni)
			buf = AppendClientHello(buf[:6], rng, sni)
			if string(buf[:6]) != "prefix" || !bytes.Equal(buf[6:], want) {
				t.Fatalf("seed %d sni %q: appending to a used buffer gave %x", seed, sni, buf)
			}
			if ref.Uint64() != rng.Uint64() {
				t.Fatalf("seed %d sni %q: RNG left at a different draw", seed, sni)
			}
		}
	}
	if !bytes.Equal(BuildClientHello(stats.NewRNG(7), ""), referenceClientHello(stats.NewRNG(7), "")) {
		t.Fatal("BuildClientHello differs from the reference")
	}
}

// TestAppendClientHelloAllocFree: into a buffer with room, the
// Internet-wide scan's hello (no SNI) costs no allocation.
func TestAppendClientHelloAllocFree(t *testing.T) {
	rng := stats.NewRNG(1)
	buf := make([]byte, 0, 512)
	if avg := testing.AllocsPerRun(100, func() { buf = AppendClientHello(buf[:0], rng, "") }); avg != 0 {
		t.Errorf("%.1f allocs per hello, want 0", avg)
	}
}

func TestFirstFlightLenScalesWithChain(t *testing.T) {
	small := FirstFlightLen(500, false, 0)
	big := FirstFlightLen(5000, false, 0)
	if big-small < 4000 {
		t.Fatalf("flight sizes %d vs %d do not scale with chain", small, big)
	}
	ocsp := FirstFlightLen(500, true, 1500)
	if ocsp-small < 1400 {
		t.Fatalf("OCSP did not add bytes: %d vs %d", ocsp, small)
	}
}

func TestSNIHostnameMalformed(t *testing.T) {
	if got := SNIHostname(Extension{Type: ExtServerName, Data: []byte{0, 1}}); got != "" {
		t.Fatalf("malformed SNI parsed as %q", got)
	}
}

// Property: ClientHello encode/decode round-trips arbitrary suites and
// session IDs.
func TestClientHelloProperty(t *testing.T) {
	f := func(sid []byte, suites []uint16, rnd [32]byte) bool {
		if len(sid) > 32 {
			sid = sid[:32]
		}
		if len(suites) == 0 {
			suites = []uint16{0x002f}
		}
		if len(suites) > 100 {
			suites = suites[:100]
		}
		ch := &ClientHello{Version: VersionTLS12, SessionID: sid, CipherSuites: suites, Random: rnd}
		got, err := DecodeClientHello(EncodeClientHello(ch))
		if err != nil {
			return false
		}
		if got.Random != rnd || len(got.CipherSuites) != len(suites) {
			return false
		}
		for i := range suites {
			if got.CipherSuites[i] != suites[i] {
				return false
			}
		}
		return bytes.Equal(got.SessionID, sid) || (len(sid) == 0 && len(got.SessionID) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: certificate chains of any sizes round-trip.
func TestCertChainProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 5 {
			sizes = sizes[:5]
		}
		var certs [][]byte
		for _, s := range sizes {
			certs = append(certs, make([]byte, int(s)%5000))
		}
		got, err := DecodeCertificateChain(EncodeCertificateChain(certs))
		if err != nil {
			return false
		}
		if len(got) != len(certs) {
			return false
		}
		for i := range certs {
			if len(got[i]) != len(certs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
