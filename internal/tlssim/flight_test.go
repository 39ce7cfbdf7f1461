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

// TestFlightRenderedOnce: each (suite, status) pair has one memo, which
// every connection asking for it shares, and which renders, in any order
// of requests, exactly the longest prefix asked for, record headers
// included, and those bytes are the reference encoding's.
func TestFlightRenderedOnce(t *testing.T) {
	cfg := ServerConfig{ChainLen: 3000, OCSPStaple: true, Seed: 5}
	srv := NewServer(cfg)
	a, b := srv.firstFlight(0xc02c, true), srv.firstFlight(0xc02c, true)
	if a != b {
		t.Fatal("the same (suite, status) pair has two memos")
	}
	if c := srv.firstFlight(0xc02c, false); c == a || c.Len() >= a.Len() {
		t.Fatal("the flight without a status message shares the stapled one's memo")
	}
	if got := FirstFlightLen(3000, true, 1500); a.Len() != got {
		t.Fatalf("flight is %d bytes, FirstFlightLen says %d", a.Len(), got)
	}
	if len(a.b) != 0 {
		t.Fatalf("a memo nobody sent from holds %d bytes", len(a.b))
	}

	rng := stats.NewRNG(7)
	for _, c := range []ServerConfig{
		{ChainLen: 36, Seed: 1}, // one certificate, one record
		{ChainLen: 2, Seed: 2},  // a certificate too short for its DER header
		{ChainLen: 2200, OCSPStaple: true, OCSPLen: 900, Seed: 3}, // three certificates and a status
		{ChainLen: 16323, Seed: 4},                                // a second record of one byte
		{ChainLen: 40000, OCSPStaple: true, Seed: 5},              // three records
	} {
		want := referenceFlight(c, 0x002f, c.OCSPStaple)
		f := NewServer(c).firstFlight(0x002f, c.OCSPStaple)
		if f.Len() != len(want) {
			t.Fatalf("chain %d: Len %d, reference %d bytes", c.ChainLen, f.Len(), len(want))
		}
		ends := make([]int, len(want))
		for i := range ends {
			ends[i] = i + 1
		}
		for i := len(ends) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			ends[i], ends[j] = ends[j], ends[i]
		}
		longest := 0
		for _, end := range ends {
			longest = max(longest, end)
			if got := f.Prefix(end); !bytes.Equal(got, want[:end]) {
				t.Fatalf("chain %d: Prefix(%d) differs from the reference", c.ChainLen, end)
			}
			if len(f.b) != longest {
				t.Fatalf("chain %d: Prefix(%d) left %d bytes rendered, the longest asked for is %d", c.ChainLen, end, len(f.b), longest)
			}
		}
	}
}

// TestFlightRecordBoundary pins the two sizes around a full record.
func TestFlightRecordBoundary(t *testing.T) {
	one := NewServer(ServerConfig{ChainLen: 16322}).firstFlight(0x002f, false)
	if one.Len() != 5+MaxRecordLen {
		t.Fatalf("16322-byte chain: flight is %d bytes, want one full record (%d)", one.Len(), 5+MaxRecordLen)
	}
	two := NewServer(ServerConfig{ChainLen: 16323}).firstFlight(0x002f, false)
	if two.Len() != 5+MaxRecordLen+5+1 {
		t.Fatalf("16323-byte chain: flight is %d bytes, want a full record and a one-byte one (%d)", two.Len(), 5+MaxRecordLen+5+1)
	}
}

// sessionTap hands the test the session a connection was given, so it
// can feed that session data in pieces no client would send.
type sessionTap struct {
	app  tcpstack.App
	last tcpstack.Session
}

func (a *sessionTap) NewSession(c *tcpstack.Conn) tcpstack.Session {
	a.last = a.app.NewSession(c)
	return a.last
}

// TestSplitHelloBesideSecondConnection: a hello that arrives in two
// pieces keeps its session while a second connection opens and is
// answered in between. The second connection must get a session of its
// own, not the server's one session the first still holds, and each
// connection must get the flight for the suite it offered.
func TestSplitHelloBesideSecondConnection(t *testing.T) {
	client, server := wire.MustParseAddr("192.0.2.1"), wire.MustParseAddr("198.51.100.10")
	cfg := ServerConfig{ChainLen: 2000, Seed: 4}
	first, second := hello([]uint16{0x002f}, false), hello([]uint16{0xc02f}, false)

	n := netsim.New(1)
	host := tcpstack.NewHost(n, server, tcpstack.Config{IW: tcpstack.IWPolicy{Segments: 10}})
	tap := &sessionTap{app: NewServer(cfg)}
	host.Listen(443, tap)
	cl := tcpstack.NewClient(n, client, tcpstack.ClientConfig{})
	got := make([][]byte, 2)
	connect := func(i int, request []byte) {
		cl.Connect(server, 443, request, tcpstack.ClientEvents{
			OnData: func(_ *tcpstack.ClientConn, data []byte) { got[i] = append(got[i], data...) },
		})
	}

	connect(0, nil)
	n.Run(netsim.Second) // handshake done, no hello yet
	one := tap.last
	one.OnData(first[:len(first)/2])

	connect(1, second)
	n.Run(2 * netsim.Second)
	if tap.last == one {
		t.Fatal("the second connection was handed the session the first still holds")
	}
	if len(got[1]) == 0 {
		t.Fatal("the second connection was not answered while the first waited")
	}

	one.OnData(first[len(first)/2:])
	n.RunUntilIdle()
	for i, suite := range []uint16{0x002f, 0xc02f} {
		if want := referenceFlight(cfg, suite, false); !bytes.Equal(got[i], want) {
			t.Errorf("connection %d: got %d bytes, want the %d-byte flight for suite %#04x", i+1, len(got[i]), len(want), suite)
		}
	}
}
