package httpsim

import (
	"fmt"
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
// is rendered once, on first use, straight into its final wire form,
// and every later connection is handed that same slice: tcpstack's
// Conn.Write adopts it without a copy and never writes through it (see
// "Payload ownership" in DESIGN.md). The memos are not synchronised: a
// Server belongs to the one tcpstack.Host it listens on, hence to one
// netsim.Network and its one goroutine, and lives as long as that host.
type Server struct {
	cfg ServerConfig

	page      []byte // 200 with the PageLen-byte page
	moved     []byte // 301 to RedirectHost+RedirectPath
	notFound  []byte // 404 that does not echo the URI
	errFiller []byte // the filler of the URI-echoing 404
}

// NewServer returns an HTTP server app.
func NewServer(cfg ServerConfig) *Server {
	if cfg.ErrPageLen == 0 {
		cfg.ErrPageLen = 180
	}
	if cfg.RedirectPath == "" {
		cfg.RedirectPath = "/index.html"
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
	buf  []byte // the head so far, while it spans segments
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
	cfg := &srv.cfg
	close := containsFold(req.connection, "close")

	switch cfg.Root {
	case BehaviorReset:
		ss.conn.Abort()
		return
	case BehaviorEmpty:
		ss.conn.Close()
		return
	case BehaviorRedirect:
		if string(req.path) == "/" {
			ss.write(srv.movedResponse(), close)
			return
		}
		if string(req.path) == cfg.RedirectPath {
			ss.write(srv.pageResponse(), close)
			return
		}
	case BehaviorNotFound:
	case BehaviorVHost:
		if hasLetter(req.host) {
			ss.write(srv.pageResponse(), close)
			return
		}
	default: // BehaviorPage
		if string(req.path) == "/" || cfg.AnyPath {
			ss.write(srv.pageResponse(), close)
			return
		}
	}
	ss.write(srv.notFoundResponse(req.path), close)
}

func (ss *serverSession) write(resp []byte, close bool) {
	ss.conn.Write(resp)
	if close {
		ss.conn.Close()
	}
	// Without Connection: close the server keeps the connection open
	// (keep-alive); the scanner tears it down with a RST.
}

// newResponse returns a buffer sized for a whole response with a body
// of bodyLen bytes, holding the head; the caller appends the body.
func newResponse(code int, reason string, bodyLen int, headers ...string) []byte {
	var hb [128]byte
	head := appendResponseHead(hb[:0], code, reason, bodyLen, headers...)
	return append(make([]byte, 0, len(head)+bodyLen), head...)
}

// pageResponse is BuildResponse(200, "OK", Page(Seed, PageLen)).
func (s *Server) pageResponse() []byte {
	if s.page == nil {
		s.page = appendPage(newResponse(200, "OK", s.cfg.PageLen), s.cfg.Seed, s.cfg.PageLen)
	}
	return s.page
}

// movedResponse is the 301 whose Location the scanner follows.
func (s *Server) movedResponse() []byte {
	if s.moved == nil {
		loc := "http://" + s.cfg.RedirectHost + s.cfg.RedirectPath
		body := fmt.Sprintf("<html><head><title>301 Moved Permanently</title></head>\n<body><a href=%q>moved here</a></body></html>\n", loc)
		s.moved = append(newResponse(301, "Moved Permanently", len(body), "Location", loc), body...)
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

// notFoundResponse is the 404 page. Without EchoURI it is one memoised
// response; with it only the filler is, and each page is assembled
// around the request path in a buffer of its own.
func (s *Server) notFoundResponse(path []byte) []byte {
	fill := max(s.cfg.ErrPageLen, 0)
	if !s.cfg.EchoURI {
		if s.notFound == nil {
			b := newResponse(404, "Not Found", len(errOpen)+fill+len(errClose))
			b = append(b, errOpen...)
			b = appendFiller(b, s.cfg.Seed, fill)
			s.notFound = append(b, errClose...)
		}
		return s.notFound
	}
	if s.errFiller == nil {
		s.errFiller = appendFiller(make([]byte, 0, fill), s.cfg.Seed, fill)
	}
	b := newResponse(404, "Not Found", len(errOpen)+len(errURL)+len(path)+len(errURL2)+fill+len(errClose))
	b = append(b, errOpen...)
	b = append(b, errURL...)
	b = append(b, path...)
	b = append(b, errURL2...)
	b = append(b, s.errFiller...)
	return append(b, errClose...)
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
// The server renders its page with appendPage, without the intermediate
// copies; this function is the reference those bytes are tested against.
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

// appendPage appends the n bytes of Page(seed, n) to dst.
func appendPage(dst []byte, seed uint64, n int) []byte {
	if n <= len(pageHeader)+len(pageFooter) {
		return append(dst, (pageHeader + pageFooter)[:n]...)
	}
	dst = append(dst, pageHeader...)
	dst = appendFiller(dst, seed, n-len(pageHeader)-len(pageFooter))
	return append(dst, pageFooter...)
}

var fillerWords = [...]string{"lorem", "ipsum", "dolor", "sit", "amet", "consectetur",
	"adipiscing", "elit", "sed", "do", "eiusmod", "tempor", "incididunt"}

// filler produces n bytes of deterministic readable text.
func filler(seed uint64, n int) []byte {
	if n <= 0 {
		return nil
	}
	rng := stats.NewRNG(seed)
	b := make([]byte, 0, n+12)
	for len(b) < n {
		b = append(b, fillerWords[rng.Intn(len(fillerWords))]...)
		b = append(b, ' ')
	}
	return b[:n]
}

// appendFiller appends the n bytes of filler(seed, n) to dst, cutting
// the last word short instead of writing past the end and slicing back.
func appendFiller(dst []byte, seed uint64, n int) []byte {
	rng := stats.NewRNG(seed)
	for end := len(dst) + n; len(dst) < end; {
		w := fillerWords[rng.Intn(len(fillerWords))]
		if room := end - len(dst); len(w) >= room {
			return append(dst, w[:room]...)
		}
		dst = append(dst, w...)
		dst = append(dst, ' ')
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
