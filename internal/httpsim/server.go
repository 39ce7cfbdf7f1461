package httpsim

import (
	"fmt"
	"slices"
	"strings"

	"iwscan/internal/stats"
	"iwscan/internal/tcpstack"
)

// RootBehavior selects how a host answers GET /.
type RootBehavior int

// HTTP server behaviours observed on the Internet (§3.2, §4.1).
const (
	// BehaviorPage serves a 200 with a page of PageLen bytes.
	BehaviorPage RootBehavior = iota
	// BehaviorRedirect answers GET / with a 301 whose Location points at
	// RedirectHost+RedirectPath; a follow-up request for that path gets
	// the real PageLen-byte page. This models virtualized servers.
	BehaviorRedirect
	// BehaviorNotFound answers every request with a 404 error page. With
	// EchoURI set the page embeds the request URI, so the scanner's URI
	// bloat enlarges it; without (the Akamai case) the page stays small.
	BehaviorNotFound
	// BehaviorEmpty accepts the request and closes without a response.
	BehaviorEmpty
	// BehaviorReset aborts the connection upon the request.
	BehaviorReset
	// BehaviorVHost serves the page only when the Host header names a
	// virtual host (contains a letter, i.e. is not a bare IP); requests
	// with an IP Host header get the 404 page. This models virtualized
	// frontends like Akamai's, which an Internet-wide IP scan cannot
	// coax content out of, but a hostname-armed scan (Alexa) can.
	BehaviorVHost
)

// ServerConfig describes one HTTP host's behaviour.
type ServerConfig struct {
	Root         RootBehavior
	PageLen      int    // body length of the main page
	RedirectHost string // Location host for BehaviorRedirect
	RedirectPath string // Location path for BehaviorRedirect
	EchoURI      bool   // 404 pages include the request URI
	ErrPageLen   int    // base body length of 404 pages (default 180)
	// AnyPath makes BehaviorPage serve the same page for every request
	// path, the way minimal embedded devices answer everything with
	// their login page — so the scanner's URI bloat cannot enlarge the
	// response.
	AnyPath bool
	Seed    uint64 // deterministic page content
}

// Server is a tcpstack.App serving the configured behaviour.
//
// Every response a Server can give is a pure function of its
// ServerConfig (the URI-echoing 404 also of the request path), so each
// is rendered once, straight into its final wire form, and every later
// connection sends from that same memo (see "Payload ownership" in
// DESIGN.md). The 200 page is a tcpstack.Source rendered on demand: its
// head eagerly, its body only as far as a connection has transmitted,
// which for the scanner is the IW and the few segments its verify ACK
// releases. The 301 and the 404 that does not echo the URI are small and
// rendered whole on first use. The memos are not synchronised: a Server
// belongs to the one tcpstack.Host it listens on, hence to one
// netsim.Network and its one goroutine, and lives as long as that host.
//
// A Server also carries one session, which each connection takes while
// the connection it last served is closed.
type Server struct {
	cfg ServerConfig

	page      page   // 200 with the PageLen-byte page
	moved     []byte // 301 to RedirectHost+RedirectPath
	notFound  []byte // 404 that does not echo the URI
	errFiller []byte // the filler of the URI-echoing 404

	session serverSession
}

// NewServer returns an HTTP server app.
func NewServer(cfg ServerConfig) *Server {
	s := new(Server)
	s.Init(cfg)
	return s
}

// Init sets up s in place, as NewServer does, so that a server can live
// inside a larger value.
func (s *Server) Init(cfg ServerConfig) {
	if cfg.ErrPageLen == 0 {
		cfg.ErrPageLen = 180
	}
	if cfg.RedirectPath == "" {
		cfg.RedirectPath = "/index.html"
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
	*ss = serverSession{srv: s, conn: c, buf: ss.buf[:0], echo: ss.echo[:0]}
	return ss
}

type serverSession struct {
	srv  *Server
	conn *tcpstack.Conn
	buf  []byte // the head so far, while it spans segments
	// echo is the URI-echoing 404 of the session's connection, which
	// sends from it until it closes; the session is handed on, and echo
	// rewritten, only after that.
	echo []byte
	done bool
}

func (ss *serverSession) OnPeerClose() {}

func (ss *serverSession) OnData(data []byte) {
	if ss.done {
		return
	}
	// The usual request is one segment and is parsed where it lies;
	// only a head still incomplete is copied to wait for the rest. The
	// terminator can straddle the old and new bytes by at most three.
	buf, from := data, 0
	if len(ss.buf) > 0 {
		from = max(len(ss.buf)-3, 0)
		ss.buf = append(ss.buf, data...)
		buf = ss.buf
	}
	req, complete, err := parseRequestHead(buf, from)
	if err != nil {
		ss.done = true
		ss.conn.Write(BuildResponse(400, "Bad Request", []byte("bad request")))
		ss.conn.Close()
		return
	}
	if !complete {
		if len(ss.buf) == 0 {
			ss.buf = append(ss.buf, data...)
		}
		return
	}
	ss.done = true
	ss.respond(req)
}

func (ss *serverSession) respond(req requestHead) {
	srv := ss.srv
	switch srv.cfg.Root {
	case BehaviorReset:
		ss.conn.Abort()
		return
	case BehaviorEmpty:
		ss.conn.Close()
		return
	}
	switch {
	case srv.cfg.Root == BehaviorRedirect && string(req.path) == "/":
		ss.conn.Write(srv.movedResponse())
	case srv.servesPage(req):
		ss.conn.Send(srv.pageSource())
	case srv.cfg.EchoURI:
		ss.echo = srv.appendEchoNotFound(ss.echo[:0], req.path)
		ss.conn.Write(ss.echo)
	default:
		ss.conn.Write(srv.notFoundResponse())
	}
	// Without Connection: close the server keeps the connection open
	// (keep-alive); the scanner tears it down with a RST.
	if containsFold(req.connection, "close") {
		ss.conn.Close()
	}
}

// servesPage reports whether req gets the 200 page.
func (s *Server) servesPage(req requestHead) bool {
	switch s.cfg.Root {
	case BehaviorRedirect:
		return string(req.path) == s.cfg.RedirectPath
	case BehaviorVHost:
		return hasLetter(req.host)
	case BehaviorNotFound:
		return false
	default: // BehaviorPage
		return string(req.path) == "/" || s.cfg.AnyPath
	}
}

// appendHead appends to dst the head of a response with a body of
// bodyLen bytes, first growing dst to hold the whole response; the
// caller appends the body.
func appendHead(dst []byte, code int, reason string, bodyLen int, headers ...string) []byte {
	var hb [128]byte
	head := appendResponseHead(hb[:0], code, reason, bodyLen, headers...)
	return append(slices.Grow(dst, len(head)+bodyLen), head...)
}

// page is BuildResponse(200, "OK", Page(Seed, PageLen)) as a
// tcpstack.Source rendered on demand. Its head and pageHeader are
// rendered when it is first sent; a Prefix past them draws filler words
// from rng exactly as appendFiller would, whole words only, the one that
// reaches footer cut short there, then as much of pageFooter as asked
// for. So what b holds is never more than a filler word past the longest
// prefix asked for.
type page struct {
	b      []byte    // the rendered prefix
	total  int       // the length of the whole response
	footer int       // where pageFooter starts
	rng    stats.RNG // the filler's generator, as far as b has drawn
}

// pageSource returns the 200 page, set up on first use.
func (s *Server) pageSource() *page {
	p := &s.page
	if p.total > 0 {
		return p
	}
	n := max(s.cfg.PageLen, 0)
	if n <= len(pageHeader)+len(pageFooter) { // no filler: rendered whole
		p.b = append(appendHead(nil, 200, "OK", n), (pageHeader + pageFooter)[:n]...)
		p.total = len(p.b)
		return p
	}
	var hb [128]byte
	head := appendResponseHead(hb[:0], 200, "OK", n)
	p.total = len(head) + n
	p.footer = p.total - len(pageFooter)
	p.rng = *stats.NewRNG(s.cfg.Seed)
	p.b = append(append(tcpstack.Reserve(nil, len(head)+len(pageHeader), p.total), head...), pageHeader...)
	return p
}

// Len implements tcpstack.Source.
func (p *page) Len() int { return p.total }

// Prefix implements tcpstack.Source, rendering the page up to end.
func (p *page) Prefix(end int) []byte {
	if end > len(p.b) {
		// A word may run its length past end.
		p.b = tcpstack.Reserve(p.b, min(end+maxWordLen, p.total), p.total)
		p.b = appendWords(p.b, &p.rng, min(end, p.footer), p.footer)
		if end > p.footer {
			p.b = append(p.b, pageFooter[len(p.b)-p.footer:end-p.footer]...)
		}
	}
	return p.b[:end]
}

// movedResponse is the 301 whose Location the scanner follows.
func (s *Server) movedResponse() []byte {
	if s.moved == nil {
		loc := "http://" + s.cfg.RedirectHost + s.cfg.RedirectPath
		body := fmt.Sprintf("<html><head><title>301 Moved Permanently</title></head>\n<body><a href=%q>moved here</a></body></html>\n", loc)
		s.moved = append(appendHead(nil, 301, "Moved Permanently", len(body), "Location", loc), body...)
	}
	return s.moved
}

// The 404 body around its variable parts.
const (
	errOpen  = "<html><head><title>404 Not Found</title></head>\n<body><h1>Not Found</h1>\n"
	errURL   = "<p>The requested URL "
	errURL2  = " was not found on this server.</p>\n"
	errClose = "</body></html>\n"
)

// notFoundResponse is the memoised 404 page that does not echo the URI.
func (s *Server) notFoundResponse() []byte {
	if s.notFound == nil {
		fill := max(s.cfg.ErrPageLen, 0)
		b := appendHead(nil, 404, "Not Found", len(errOpen)+fill+len(errClose))
		b = append(b, errOpen...)
		b = appendFiller(b, s.cfg.Seed, fill)
		s.notFound = append(b, errClose...)
	}
	return s.notFound
}

// appendEchoNotFound appends the 404 page that echoes path to dst; only
// its filler is memoised.
func (s *Server) appendEchoNotFound(dst, path []byte) []byte {
	fill := max(s.cfg.ErrPageLen, 0)
	if s.errFiller == nil {
		s.errFiller = appendFiller(make([]byte, 0, fill), s.cfg.Seed, fill)
	}
	dst = appendHead(dst, 404, "Not Found", len(errOpen)+len(errURL)+len(path)+len(errURL2)+fill+len(errClose))
	dst = append(dst, errOpen...)
	dst = append(dst, errURL...)
	dst = append(dst, path...)
	dst = append(dst, errURL2...)
	dst = append(dst, s.errFiller...)
	return append(dst, errClose...)
}

// hasLetter reports whether s contains an ASCII letter (i.e. looks like
// a hostname rather than a bare IP, ignoring port suffixes).
func hasLetter(s []byte) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') {
			return true
		}
	}
	return false
}

// The page body around its filler.
const (
	pageHeader = "<html><head><title>index</title></head><body>\n"
	pageFooter = "</body></html>\n"
)

// Page generates a deterministic HTML-ish page body of exactly n bytes.
// The server renders its page on demand (see page), without the
// intermediate copies; this function is the reference those bytes are
// tested against.
func Page(seed uint64, n int) []byte {
	if n <= len(pageHeader)+len(pageFooter) {
		b := []byte(pageHeader + pageFooter)
		return b[:n]
	}
	body := make([]byte, 0, n)
	body = append(body, pageHeader...)
	body = append(body, filler(seed, n-len(pageHeader)-len(pageFooter))...)
	return append(body, pageFooter...)
}

// fillerWords are the filler's words, each with its trailing space.
var fillerWords = [...]string{"lorem ", "ipsum ", "dolor ", "sit ", "amet ", "consectetur ",
	"adipiscing ", "elit ", "sed ", "do ", "eiusmod ", "tempor ", "incididunt "}

// maxWordLen is the longest of fillerWords, without its space.
const maxWordLen = len("consectetur")

// filler produces n bytes of deterministic readable text.
func filler(seed uint64, n int) []byte {
	if n <= 0 {
		return nil
	}
	rng := stats.NewRNG(seed)
	b := make([]byte, 0, n+12)
	for len(b) < n {
		b = append(b, fillerWords[rng.Intn(len(fillerWords))]...)
	}
	return b[:n]
}

// appendFiller appends the n bytes of filler(seed, n) to dst.
func appendFiller(dst []byte, seed uint64, n int) []byte {
	return appendWords(dst, stats.NewRNG(seed), len(dst)+n, len(dst)+n)
}

// appendWords appends filler words drawn from rng until dst is at least
// stop bytes long, cutting the word that reaches end short there instead
// of writing past it and slicing back (stop <= end).
func appendWords(dst []byte, rng *stats.RNG, stop, end int) []byte {
	for len(dst) < stop {
		w := fillerWords[rng.Intn(len(fillerWords))]
		if room := end - len(dst); len(w) > room {
			return append(dst, w[:room]...)
		}
		dst = append(dst, w...)
	}
	return dst
}

// BloatedPath builds the long scan URI of §3.2: a path that fills the
// scanner's MTU, identifying the research scan, so URI-echoing error
// pages grow past the IW.
func BloatedPath(n int) string {
	const prefix = "/research-scan-measuring-tcp-initial-window-see-scan-info-page-for-opt-out"
	if n <= len(prefix) {
		return prefix[:n]
	}
	var sb strings.Builder
	sb.WriteString(prefix)
	for sb.Len() < n {
		sb.WriteString("-tcp-iw-measurement")
	}
	return sb.String()[:n]
}
