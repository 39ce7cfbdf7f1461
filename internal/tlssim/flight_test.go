package tlssim

import (
	"bytes"
	"testing"

	"iwscan/internal/netsim"
	"iwscan/internal/stats"
	"iwscan/internal/tcpstack"
	"iwscan/internal/wire"
)

// referenceFlight is the first flight as the server encoded it inline
// for every connection before the flight was memoised: each message
// through the exported encoders, the whole then cut into records.
func referenceFlight(cfg ServerConfig, suite uint16, status bool) []byte {
	cfg = NewServer(cfg).cfg // the defaults
	rng := stats.NewRNG(cfg.Seed)
	sh := &ServerHello{Version: VersionTLS12, CipherSuite: suite}
	for i := range sh.Random {
		sh.Random[i] = byte(rng.Uint64())
	}
	flight := EncodeHandshake(nil, Handshake{Type: HandshakeServerHello, Body: EncodeServerHello(sh)})
	chain := GenerateChain(rng, cfg.ChainLen)
	flight = EncodeHandshake(flight, Handshake{Type: HandshakeCertificate, Body: EncodeCertificateChain(chain)})
	if status {
		ocsp := make([]byte, cfg.OCSPLen)
		for i := range ocsp {
			ocsp[i] = byte(rng.Uint64())
		}
		flight = EncodeHandshake(flight, Handshake{Type: HandshakeCertificateStatus, Body: ocsp})
	}
	flight = EncodeHandshake(flight, Handshake{Type: HandshakeServerHelloDone, Body: nil})
	var out []byte
	for off := 0; off < len(flight); off += MaxRecordLen {
		end := min(off+MaxRecordLen, len(flight))
		out = EncodeRecord(out, Record{Type: RecordHandshake, Version: VersionTLS12, Payload: flight[off:end]})
	}
	return out
}

// hello builds a ClientHello record offering the given suites, with or
// without a status_request extension.
func hello(suites []uint16, statusRequest bool) []byte {
	ch := &ClientHello{Version: VersionTLS12, CipherSuites: suites}
	if statusRequest {
		ch.Extensions = append(ch.Extensions, StatusRequestExtension())
	}
	hs := EncodeHandshake(nil, Handshake{Type: HandshakeClientHello, Body: EncodeClientHello(ch)})
	return EncodeRecord(nil, Record{Type: RecordHandshake, Version: 0x0301, Payload: hs})
}

// TestFlightMatchesReference is the contract of the memoised flight: for
// every chain size (one, two and three certificates; one record and
// several), stapling configuration, suite offered and status_request,
// the bytes a client receives are those of the reference encoding, on
// the first connection to a Server (which renders) and on the second
// (which replays).
func TestFlightMatchesReference(t *testing.T) {
	client, server := wire.MustParseAddr("192.0.2.1"), wire.MustParseAddr("198.51.100.10")
	fetch := func(srv *Server, request []byte) []byte {
		n := netsim.New(1)
		host := tcpstack.NewHost(n, server, tcpstack.Config{IW: tcpstack.IWPolicy{Segments: 10}})
		host.Listen(443, srv)
		var got []byte
		tcpstack.NewClient(n, client, tcpstack.ClientConfig{}).Connect(server, 443, request, tcpstack.ClientEvents{
			OnData: func(_ *tcpstack.ClientConn, data []byte) { got = append(got, data...) },
		})
		n.RunUntilIdle()
		return got
	}
	// Unstapled, a 16322-byte chain makes the messages exactly one full
	// record; one more byte spills a single byte into a second.
	for _, chainLen := range []int{0, 36, 699, 700, 2199, 2200, 5000, 16322, 16323, 40000, 65000} {
		for _, staple := range []bool{false, true} {
			for _, ocspLen := range []int{0, 900} {
				cfg := ServerConfig{ChainLen: chainLen, OCSPStaple: staple, OCSPLen: ocspLen, Seed: uint64(chainLen + ocspLen)}
				srv := NewServer(cfg)
				for _, suites := range [][]uint16{DefaultCipherSuites, {0x002f}, nil} {
					suite := uint16(0x002f)
					if len(suites) > 0 {
						suite = suites[0]
					}
					for _, statusRequest := range []bool{true, false} {
						want := referenceFlight(cfg, suite, staple && statusRequest)
						for _, which := range []string{"first", "second"} {
							if got := fetch(srv, hello(suites, statusRequest)); !bytes.Equal(got, want) {
								t.Fatalf("chain %d staple=%v ocsp %d suite %#04x status_request=%v: %s connection got %d bytes, reference %d\n got %.40x\nwant %.40x",
									chainLen, staple, ocspLen, suite, statusRequest, which, len(got), len(want), got, want)
							}
						}
					}
				}
				want := 2 // one per suite
				if staple {
					want = 4 // ... and per status_request
				}
				if len(srv.flights) != want {
					t.Fatalf("chain %d staple=%v: %d flights memoised, want %d", chainLen, staple, len(srv.flights), want)
				}
			}
		}
	}
}

// TestFlightRenderedOnce: the second identical request is handed the
// very slice the first one rendered.
func TestFlightRenderedOnce(t *testing.T) {
	srv := NewServer(ServerConfig{ChainLen: 3000, OCSPStaple: true, Seed: 5})
	a, b := srv.firstFlight(0xc02c, true), srv.firstFlight(0xc02c, true)
	if &a[0] != &b[0] || len(a) != len(b) {
		t.Fatal("the same (suite, status) pair was rendered twice")
	}
	if c := srv.firstFlight(0xc02c, false); &c[0] == &a[0] || len(c) >= len(a) {
		t.Fatal("the flight without a status message shares the stapled one's memo")
	}
	if got := FirstFlightLen(3000, true, 1500); len(a) != got || cap(a) != got {
		t.Fatalf("flight is %d bytes in a buffer of %d, FirstFlightLen says %d", len(a), cap(a), got)
	}
}

// TestFlightRecordBoundary pins the two sizes around a full record.
func TestFlightRecordBoundary(t *testing.T) {
	one := NewServer(ServerConfig{ChainLen: 16322}).firstFlight(0x002f, false)
	if len(one) != 5+MaxRecordLen {
		t.Fatalf("16322-byte chain: flight is %d bytes, want one full record (%d)", len(one), 5+MaxRecordLen)
	}
	two := NewServer(ServerConfig{ChainLen: 16323}).firstFlight(0x002f, false)
	if len(two) != 5+MaxRecordLen+5+1 {
		t.Fatalf("16323-byte chain: flight is %d bytes, want a full record and a one-byte one (%d)", len(two), 5+MaxRecordLen+5+1)
	}
}
