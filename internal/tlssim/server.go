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
// one memo, a tcpstack.Source every later connection sends from too
// (see "Payload ownership" in DESIGN.md). A memo is rendered on demand,
// in its final record framing, and only as far as a connection has
// transmitted: for the scanner, the IW and the few segments its verify
// ACK releases. The memos are not synchronised: a Server belongs to the
// one tcpstack.Host it listens on, hence to one netsim.Network and its
// one goroutine, and lives as long as that host.
//
// A Server also carries one session, which each connection takes while
// the connection it last served is closed.
type Server struct {
	cfg     ServerConfig
	flights []*flight
	session serverSession
}

// NewServer returns a TLS server app with the given behaviour.
func NewServer(cfg ServerConfig) *Server {
	s := new(Server)
	s.Init(cfg)
	return s
}

// Init sets up s in place, as NewServer does, so that a server can live
// inside a larger value.
func (s *Server) Init(cfg ServerConfig) {
	if cfg.OCSPLen == 0 {
		cfg.OCSPLen = 1500
	}
	*s = Server{cfg: cfg}
}

// NewSession implements tcpstack.App. It hands out the server's own
// session unless that still serves an open connection, which is then a
// different one: the host reuses a Conn only once it has closed.
func (s *Server) NewSession(c *tcpstack.Conn) tcpstack.Session {
	ss := &s.session
	if ss.conn != nil && ss.conn != c && !ss.conn.Closed() {
		ss = new(serverSession)
	}
	*ss = serverSession{srv: s, conn: c, buf: ss.buf[:0], hello: ss.hello}
	return ss
}

type serverSession struct {
	srv   *Server
	conn  *tcpstack.Conn
	buf   []byte      // the hello record so far, while it spans segments
	hello ClientHello // decoded into the arrays of the session's last hello
	done  bool
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
	if err := decodeClientHelloInto(&ss.hello, hs.Body); err != nil {
		ss.fatal(AlertInternalError)
		return
	}
	ss.done = true
	ss.respond(&ss.hello)
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

	ss.conn.Send(ss.srv.firstFlight(suite, cfg.OCSPStaple && ch.HasExtension(ExtStatusRequest)))
	// The server now waits for ClientKeyExchange; it does not close, so
	// an IW-limited host keeps data queued and never FINs early.
}

// firstFlight returns the memo of the ServerHello, Certificate, optional
// CertificateStatus and ServerHelloDone, fragmented across records of
// at most MaxRecordLen.
func (s *Server) firstFlight(suite uint16, status bool) *flight {
	for _, f := range s.flights {
		if f.suite == suite && f.status == status {
			return f
		}
	}
	f := &flight{cfg: &s.cfg, suite: suite, status: status, rng: *stats.NewRNG(s.cfg.Seed)}
	certLens, nCerts := chainSplit(s.cfg.ChainLen)
	f.msgs = 4 + helloLen + 4 + ChainWireLen(certLens[:nCerts]) + 4
	if status {
		f.msgs += 4 + s.cfg.OCSPLen
	}
	s.flights = append(s.flights, f)
	return f
}

// helloLen is the ServerHello body: version, random, empty session ID,
// suite, null compression, no extensions.
const helloLen = 2 + 32 + 1 + 2 + 1

// recordSize is the wire length of a full record.
const recordSize = 5 + MaxRecordLen

// flight is one first flight as a tcpstack.Source rendered on demand,
// exactly as far as the longest prefix asked for: each record header at
// its known offset, the handshake messages in between, their random
// bytes drawn from rng in the order the reference encoding draws them.
type flight struct {
	cfg    *ServerConfig
	suite  uint16
	status bool      // carries a CertificateStatus message
	msgs   int       // the length of the handshake messages
	b      []byte    // the rendered prefix
	rng    stats.RNG // as far as b has drawn
}

// Len implements tcpstack.Source.
func (f *flight) Len() int { return f.msgs + 5*((f.msgs+MaxRecordLen-1)/MaxRecordLen) }

// Prefix implements tcpstack.Source, rendering the flight up to end.
func (f *flight) Prefix(end int) []byte {
	if end <= len(f.b) {
		return f.b[:end]
	}
	f.b = tcpstack.Reserve(f.b, end, f.Len())
	for len(f.b) < end {
		r, off := len(f.b)/recordSize, len(f.b)%recordSize
		if off < 5 {
			n := min(MaxRecordLen, f.msgs-r*MaxRecordLen)
			hdr := [5]byte{RecordHandshake, byte(VersionTLS12 >> 8), byte(VersionTLS12 & 0xff), byte(n >> 8), byte(n)}
			f.b = append(f.b, hdr[off:min(5, off+end-len(f.b))]...)
			continue
		}
		from := r*MaxRecordLen + off - 5
		f.b = f.appendMessages(f.b, from, from+min(end, (r+1)*recordSize)-len(f.b))
	}
	return f.b[:end]
}

// appendMessages appends the handshake messages' bytes [from, to) to
// dst, drawing from f.rng the random bytes among them; from must be
// where the last call stopped. It walks the messages in wire order, as
// the reference encoding writes them, and emits what falls in range.
func (f *flight) appendMessages(dst []byte, from, to int) []byte {
	at := 0 // the offset of the piece being walked
	lit := func(b ...byte) {
		if lo, hi := max(from, at), min(to, at+len(b)); lo < hi {
			dst = append(dst, b[lo-at:hi-at]...)
		}
		at += len(b)
	}
	// draw is n random bytes; as fillCert does, a certificate's first
	// four are its certHeader, drawn over.
	draw := func(n int, cert bool) {
		for i := max(from, at) - at; i < min(to-at, n); i++ {
			c := byte(f.rng.Uint64())
			if cert && n >= 4 && i < 4 {
				c = certHeader(n)[i]
			}
			dst = append(dst, c)
		}
		at += n
	}
	u24 := func(typ byte, n int) { lit(typ, byte(n>>16), byte(n>>8), byte(n)) }

	u24(HandshakeServerHello, helloLen)
	lit(byte(VersionTLS12>>8), byte(VersionTLS12&0xff))
	draw(32, false)
	lit(0, byte(f.suite>>8), byte(f.suite), 0) // no session ID, the suite, null compression
	certLens, nCerts := chainSplit(f.cfg.ChainLen)
	chainBody := ChainWireLen(certLens[:nCerts])
	u24(HandshakeCertificate, chainBody)
	lit(byte((chainBody-3)>>16), byte((chainBody-3)>>8), byte(chainBody-3))
	for _, n := range certLens[:nCerts] {
		lit(byte(n>>16), byte(n>>8), byte(n))
		draw(n, true)
	}
	if f.status {
		u24(HandshakeCertificateStatus, f.cfg.OCSPLen)
		draw(f.cfg.OCSPLen, false)
	}
	u24(HandshakeServerHelloDone, 0)
	return dst
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
// traffic looks plausible in a packet capture: one draw per byte, the
// first four drawn over by certHeader.
func fillCert(rng *stats.RNG, b []byte) {
	for i := range b {
		b[i] = byte(rng.Uint64())
	}
	if len(b) >= 4 {
		h := certHeader(len(b))
		copy(b, h[:])
	}
}

// certHeader is the start of an n-byte certificate (n >= 4): a SEQUENCE
// with a 2-byte long-form length.
func certHeader(n int) [4]byte {
	return [4]byte{0x30, 0x82, byte((n - 4) >> 8), byte(n - 4)}
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
