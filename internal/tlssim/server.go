package tlssim

import (
	"iwscan/internal/stats"
	"iwscan/internal/tcpstack"
)

// ServerBehavior selects how a TLS host answers a ClientHello.
type ServerBehavior int

// TLS server behaviours observed on the Internet (§3.3, §4 of the paper).
const (
	// BehaviorServeChain sends the full first flight: ServerHello,
	// Certificate (chain of ChainLen bytes), optional CertificateStatus,
	// ServerHelloDone. The connection then waits for the client.
	BehaviorServeChain ServerBehavior = iota
	// BehaviorRequireSNI answers a hello without a server_name extension
	// with a fatal unrecognized_name alert and closes — these hosts show
	// up as "few data" with no payload at all (NoData in Table 2).
	BehaviorRequireSNI
	// BehaviorNoCipherOverlap rejects the offered suites with a fatal
	// handshake_failure alert and closes — a single tiny record, giving
	// the IW1 lower bound that dominates the TLS "few data" hosts.
	BehaviorNoCipherOverlap
	// BehaviorReset aborts the connection with a RST upon the hello
	// (counted as an estimation error).
	BehaviorReset
)

// ServerConfig describes one TLS host's answer behaviour.
type ServerConfig struct {
	Behavior ServerBehavior
	// ChainLen is the certificate chain length in bytes (the DER bytes,
	// excluding the per-cert length prefixes) for BehaviorServeChain.
	ChainLen int
	// OCSPStaple appends a CertificateStatus message of OCSPLen bytes
	// when the client requested stapling.
	OCSPStaple bool
	OCSPLen    int
	// Seed makes certificate bytes deterministic per host.
	Seed uint64
}

// Server is a tcpstack.App that speaks the server side of the TLS
// handshake's first flight.
//
// The flight is a pure function of the ServerConfig, the suite picked
// and whether the client asked for a stapled status, so each variant is
// rendered once, on first use, in its final record framing, and every
// later connection is handed that same slice: tcpstack's Conn.Write
// adopts it without a copy and never writes through it (see "Payload
// ownership" in DESIGN.md). The memo is not synchronised: a Server
// belongs to the one tcpstack.Host it listens on, hence to one
// netsim.Network and its one goroutine, and lives as long as that host.
type Server struct {
	cfg     ServerConfig
	flights []flight
}

// flight is one memoised first flight.
type flight struct {
	suite  uint16
	status bool // carries a CertificateStatus message
	wire   []byte
}

// NewServer returns a TLS server app with the given behaviour.
func NewServer(cfg ServerConfig) *Server {
	if cfg.OCSPLen == 0 {
		cfg.OCSPLen = 1500
	}
	return &Server{cfg: cfg}
}

// NewSession implements tcpstack.App.
func (s *Server) NewSession(c *tcpstack.Conn) tcpstack.Session {
	return &serverSession{srv: s, conn: c}
}

type serverSession struct {
	srv  *Server
	conn *tcpstack.Conn
	buf  []byte // the hello record so far, while it spans segments
	done bool
}

func (ss *serverSession) OnPeerClose() {}

func (ss *serverSession) OnData(data []byte) {
	if ss.done {
		return
	}
	// The usual hello is one segment and is decoded where it lies; only
	// a record still incomplete is copied to wait for the rest.
	buf := data
	if len(ss.buf) > 0 {
		ss.buf = append(ss.buf, data...)
		buf = ss.buf
	}
	rec, _, err := DecodeRecord(buf)
	if err == ErrTruncated {
		if len(ss.buf) == 0 {
			ss.buf = append(ss.buf, data...)
		}
		return // wait for more bytes
	}
	if err != nil || rec.Type != RecordHandshake {
		ss.fatal(AlertInternalError)
		return
	}
	hs, _, err := DecodeHandshake(rec.Payload)
	if err != nil || hs.Type != HandshakeClientHello {
		ss.fatal(AlertInternalError)
		return
	}
	ch, err := DecodeClientHello(hs.Body)
	if err != nil {
		ss.fatal(AlertInternalError)
		return
	}
	ss.done = true
	ss.respond(ch)
}

func (ss *serverSession) fatal(desc byte) {
	ss.done = true
	ss.conn.Write(EncodeAlertRecord(nil, Alert{Level: AlertLevelFatal, Desc: desc}))
	ss.conn.Close()
}

func (ss *serverSession) respond(ch *ClientHello) {
	cfg := ss.srv.cfg
	switch cfg.Behavior {
	case BehaviorReset:
		ss.conn.Abort()
		return
	case BehaviorRequireSNI:
		if _, ok := ch.Extension(ExtServerName); !ok {
			// Close without sending anything — the NoData case. Real
			// SNI-only frontends drop or time the connection out; we
			// send a bare FIN.
			ss.conn.Close()
			return
		}
	case BehaviorNoCipherOverlap:
		ss.fatal(AlertHandshakeFailure)
		return
	}

	// Pick the first offered suite we nominally support.
	suite := uint16(0x002f)
	if len(ch.CipherSuites) > 0 {
		suite = ch.CipherSuites[0]
	}

	ss.conn.Write(ss.srv.firstFlight(suite, cfg.OCSPStaple && ch.HasExtension(ExtStatusRequest)))
	// The server now waits for ClientKeyExchange; it does not close, so
	// an IW-limited host keeps data queued and never FINs early.
}

// firstFlight returns the memoised ServerHello, Certificate, optional
// CertificateStatus and ServerHelloDone, fragmented across records of
// at most MaxRecordLen.
func (s *Server) firstFlight(suite uint16, status bool) []byte {
	for _, f := range s.flights {
		if f.suite == suite && f.status == status {
			return f.wire
		}
	}
	wire := s.renderFlight(suite, status)
	s.flights = append(s.flights, flight{suite: suite, status: status, wire: wire})
	return wire
}

// helloLen is the ServerHello body: version, random, empty session ID,
// suite, null compression, no extensions.
const helloLen = 2 + 32 + 1 + 2 + 1

// renderFlight renders the flight into one buffer of its final size:
// the messages are appended behind the room all the record headers
// need, then each record's payload is moved down behind its own header,
// front to back, so a payload only ever moves over bytes already framed.
func (s *Server) renderFlight(suite uint16, status bool) []byte {
	certLens, nCerts := chainSplit(s.cfg.ChainLen)
	chainBody := 3
	for _, n := range certLens[:nCerts] {
		chainBody += 3 + n
	}
	msgs := 4 + helloLen + 4 + chainBody + 4
	if status {
		msgs += 4 + s.cfg.OCSPLen
	}
	records := (msgs + MaxRecordLen - 1) / MaxRecordLen

	rng := stats.NewRNG(s.cfg.Seed)
	b := make([]byte, 5*records, 5*records+msgs)
	b = appendUint24(append(b, HandshakeServerHello), helloLen)
	b = append(b, byte(VersionTLS12>>8), byte(VersionTLS12&0xff))
	for i := 0; i < 32; i++ {
		b = append(b, byte(rng.Uint64()))
	}
	b = append(b, 0, byte(suite>>8), byte(suite), 0) // no session ID, the suite, null compression

	b = appendUint24(append(b, HandshakeCertificate), chainBody)
	b = appendUint24(b, chainBody-3)
	for _, n := range certLens[:nCerts] {
		b = appendUint24(b, n)
		b = b[:len(b)+n]
		fillCert(rng, b[len(b)-n:])
	}
	if status {
		b = appendUint24(append(b, HandshakeCertificateStatus), s.cfg.OCSPLen)
		for i := 0; i < s.cfg.OCSPLen; i++ {
			b = append(b, byte(rng.Uint64()))
		}
	}
	b = appendUint24(append(b, HandshakeServerHelloDone), 0)

	for r := 0; r < records; r++ {
		payload := b[5*records+r*MaxRecordLen:]
		if len(payload) > MaxRecordLen {
			payload = payload[:MaxRecordLen]
		}
		rec := b[r*(5+MaxRecordLen):]
		rec[0] = RecordHandshake
		rec[1], rec[2] = byte(VersionTLS12>>8), byte(VersionTLS12&0xff)
		rec[3], rec[4] = byte(len(payload)>>8), byte(len(payload))
		copy(rec[5:], payload)
	}
	return b
}

func appendUint24(b []byte, n int) []byte {
	return append(b, byte(n>>16), byte(n>>8), byte(n))
}

// GenerateChain produces a deterministic pseudo-DER certificate chain
// whose total DER length is totalLen bytes, split across 1-3
// certificates the way real chains are (leaf larger than intermediates).
func GenerateChain(rng *stats.RNG, totalLen int) [][]byte {
	lens, n := chainSplit(totalLen)
	chain := make([][]byte, 0, n)
	for _, n := range lens[:n] {
		cert := make([]byte, n)
		fillCert(rng, cert)
		chain = append(chain, cert)
	}
	return chain
}

// chainSplit divides a chain of totalLen DER bytes into the lengths of
// its n certificates.
func chainSplit(totalLen int) (lens [3]int, n int) {
	if totalLen <= 0 {
		totalLen = 36
	}
	switch {
	case totalLen < 700:
		return [3]int{totalLen}, 1
	case totalLen < 2200:
		leaf := totalLen * 60 / 100
		return [3]int{leaf, totalLen - leaf}, 2
	default:
		leaf := totalLen * 45 / 100
		inter := totalLen * 35 / 100
		return [3]int{leaf, inter, totalLen - leaf - inter}, 3
	}
}

// fillCert fills b with bytes that start like a DER SEQUENCE, so
// traffic looks plausible in a packet capture.
func fillCert(rng *stats.RNG, b []byte) {
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
	if n := len(b); n >= 4 {
		b[0] = 0x30 // SEQUENCE
		b[1] = 0x82 // long form, 2 length bytes
		inner := n - 4
		b[2] = byte(inner >> 8)
		b[3] = byte(inner)
	}
}

// ChainLenDist models the censys.io certificate-chain length
// distribution of Figure 2: mean 2186 B, minimum 36 B, maximum 65 kB,
// with >= 86% of hosts above 640 B (10 segments at MSS 64) and about
// half above ~2176 B (IW 34 at MSS 64).
type ChainLenDist struct{}

// Figure-2 calibration constants.
const (
	chainMin      = 36
	chainMax      = 65000
	chainP1       = 0.14 // mass below 640 B
	chainP2       = 0.36 // mass in [640, 2176)
	chainTailMean = 1100 // exponential tail mean above 2176 B
)

// SampleHash draws a chain length from 64 bits of per-host hash, so a
// host's chain is a stable attribute of its address.
func (ChainLenDist) SampleHash(h uint64) int {
	r := stats.NewRNG(h)
	u := r.Float64()
	switch {
	case u < chainP1:
		// Uniform on [36, 640): small self-signed or truncated chains.
		return chainMin + r.Intn(640-chainMin)
	case u < chainP1+chainP2:
		// Uniform on [640, 2176): single leaf + small intermediate.
		return 640 + r.Intn(2176-640)
	default:
		// Shifted exponential above 2176, truncated at 65 kB, with a
		// sliver of extreme chains (mis-issued bundles with dozens of
		// certificates) reaching the paper's observed 65 kB maximum.
		if r.Float64() < 0.0015 {
			return 10000 + r.Intn(chainMax-10000+1)
		}
		v := 2176 + int(r.ExpFloat64()*chainTailMean)
		if v > chainMax {
			v = chainMax
		}
		return v
	}
}
