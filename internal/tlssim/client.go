package tlssim

import "iwscan/internal/stats"

// AppendClientHello appends the complete ClientHello record the
// scanner sends to dst: the 40-suite cipher list plus an OCSP
// status_request extension to coax extra bytes out of stapling hosts
// (§3.3). If sni is non-empty a server_name extension is included; the
// Internet-wide scan leaves it empty because only IP addresses are
// known, and copies helloTemplate, so into a buffer with room it does
// not allocate. The 32 random bytes are written in place, one
// rng.Uint64 draw each.
func AppendClientHello(dst []byte, rng *stats.RNG, sni string) []byte {
	start := len(dst)
	if sni == "" {
		dst = append(dst, helloTemplate...)
	} else {
		dst = append(dst, encodeHello(sni)...)
	}
	random := dst[start+helloRandomOff : start+helloRandomOff+32]
	for i := range random {
		random[i] = byte(rng.Uint64())
	}
	return dst
}

// BuildClientHello returns AppendClientHello(nil, rng, sni).
func BuildClientHello(rng *stats.RNG, sni string) []byte {
	return AppendClientHello(nil, rng, sni)
}

// helloRandomOff is where the random sits in a ClientHello record:
// behind the record header (5 bytes), the handshake header (4) and the
// client version (2).
const helloRandomOff = 5 + 4 + 2

// helloTemplate is the ClientHello record without SNI.
var helloTemplate = encodeHello("")

// encodeHello builds the ClientHello record with a zero random.
func encodeHello(sni string) []byte {
	ch := &ClientHello{
		Version:      VersionTLS12,
		CipherSuites: DefaultCipherSuites,
	}
	ch.Extensions = append(ch.Extensions, StatusRequestExtension())
	if sni != "" {
		ch.Extensions = append(ch.Extensions, SNIExtension(sni))
	}
	// Signature algorithms and supported groups, as browsers offer them;
	// servers we simulate ignore the contents but the bytes add realism.
	ch.Extensions = append(ch.Extensions,
		Extension{Type: ExtSignatureAlgs, Data: []byte{0x00, 0x08, 0x04, 0x01, 0x04, 0x03, 0x05, 0x01, 0x05, 0x03}},
		Extension{Type: ExtSupportedGrps, Data: []byte{0x00, 0x06, 0x00, 0x17, 0x00, 0x18, 0x00, 0x19}},
		Extension{Type: ExtECPointFmts, Data: []byte{0x01, 0x00}},
	)
	hs := EncodeHandshake(nil, Handshake{Type: HandshakeClientHello, Body: EncodeClientHello(ch)})
	return EncodeRecord(nil, Record{Type: RecordHandshake, Version: 0x0301, Payload: hs})
}

// FirstFlightLen computes the server's first-flight payload length for a
// given chain configuration — useful for sizing expectations in tests
// and benchmarks.
func FirstFlightLen(chainLen int, ocsp bool, ocspLen int) int {
	rng := stats.NewRNG(1)
	sh := &ServerHello{Version: VersionTLS12, CipherSuite: 0x002f}
	flight := EncodeHandshake(nil, Handshake{Type: HandshakeServerHello, Body: EncodeServerHello(sh)})
	chain := GenerateChain(rng, chainLen)
	flight = EncodeHandshake(flight, Handshake{Type: HandshakeCertificate, Body: EncodeCertificateChain(chain)})
	if ocsp {
		flight = EncodeHandshake(flight, Handshake{Type: HandshakeCertificateStatus, Body: make([]byte, ocspLen)})
	}
	flight = EncodeHandshake(flight, Handshake{Type: HandshakeServerHelloDone, Body: nil})
	records := (len(flight) + MaxRecordLen - 1) / MaxRecordLen
	return len(flight) + 5*records
}
