package httpsim

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"iwscan/internal/netsim"
	"iwscan/internal/tcpstack"
	"iwscan/internal/wire"
)

var (
	testClient = wire.MustParseAddr("192.0.2.1")
	testServer = wire.MustParseAddr("198.51.100.10")
)

// reply is what a client saw of one connection.
type reply struct {
	data     []byte
	closed   bool // the connection ended
	graceful bool // ... with a FIN, not a RST
}

// referenceReply is the server's behaviour as it was written before the
// responses were memoised: ParseRequest, then BuildResponse over Page or
// over a formatted error body, composed anew for every request.
func referenceReply(cfg ServerConfig, request []byte) reply {
	cfg = NewServer(cfg).cfg // the defaults
	req, err := ParseRequest(request)
	if err != nil || req == nil {
		panic("referenceReply: the table holds complete, well-formed requests only")
	}
	var resp []byte
	page := func() { resp = BuildResponse(200, "OK", Page(cfg.Seed, cfg.PageLen)) }
	notFound := func() {
		var body string
		if cfg.EchoURI {
			body = fmt.Sprintf(
				"<html><head><title>404 Not Found</title></head>\n<body><h1>Not Found</h1>\n<p>The requested URL %s was not found on this server.</p>\n%s</body></html>\n",
				req.Path, filler(cfg.Seed, cfg.ErrPageLen))
		} else {
			body = fmt.Sprintf(
				"<html><head><title>404 Not Found</title></head>\n<body><h1>Not Found</h1>\n%s</body></html>\n",
				filler(cfg.Seed, cfg.ErrPageLen))
		}
		resp = BuildResponse(404, "Not Found", []byte(body))
	}
	switch cfg.Root {
	case BehaviorReset:
		return reply{closed: true}
	case BehaviorEmpty:
		return reply{closed: true, graceful: true}
	case BehaviorRedirect:
		switch req.Path {
		case "/":
			loc := fmt.Sprintf("http://%s%s", cfg.RedirectHost, cfg.RedirectPath)
			body := fmt.Sprintf("<html><head><title>301 Moved Permanently</title></head>\n<body><a href=%q>moved here</a></body></html>\n", loc)
			resp = BuildResponse(301, "Moved Permanently", []byte(body), "Location", loc)
		case cfg.RedirectPath:
			page()
		default:
			notFound()
		}
	case BehaviorNotFound:
		notFound()
	case BehaviorVHost:
		if strings.ContainsAny(req.Header("Host"), "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ") {
			page()
		} else {
			notFound()
		}
	default:
		if req.Path == "/" || cfg.AnyPath {
			page()
		} else {
			notFound()
		}
	}
	close := strings.Contains(strings.ToLower(req.Header("Connection")), "close")
	return reply{data: resp, closed: close, graceful: close}
}

// fetch opens one connection to srv through a real tcpstack host and an
// acknowledging client, and returns what the client saw.
func fetch(t *testing.T, srv *Server, request []byte) reply {
	t.Helper()
	n := netsim.New(1)
	host := tcpstack.NewHost(n, testServer, tcpstack.Config{IW: tcpstack.IWPolicy{Segments: 10}})
	host.Listen(80, srv)
	cl := tcpstack.NewClient(n, testClient, tcpstack.ClientConfig{})
	var got reply
	cl.Connect(testServer, 80, request, tcpstack.ClientEvents{
		OnData:  func(_ *tcpstack.ClientConn, data []byte) { got.data = append(got.data, data...) },
		OnClose: func(_ *tcpstack.ClientConn, complete bool) { got.closed, got.graceful = true, complete },
	})
	n.RunUntilIdle()
	return got
}

// TestWireBytesMatchReference is the contract of the memoised responses:
// whatever the behaviour, the path, the Host and Connection headers and
// the page size, the bytes a client receives — and how the connection
// ends — are those of the reference composition, on the first request
// to a Server (which renders) and on the second (which replays).
func TestWireBytesMatchReference(t *testing.T) {
	configs := []ServerConfig{
		{Root: BehaviorPage},
		{Root: BehaviorPage, AnyPath: true},
		{Root: BehaviorPage, EchoURI: true, ErrPageLen: 133},
		{Root: BehaviorRedirect, RedirectHost: "www.h7.example.net", RedirectPath: "/site/index.html"},
		{Root: BehaviorRedirect, RedirectHost: `quo"ted.example`, EchoURI: true},
		{Root: BehaviorNotFound, ErrPageLen: 330},
		{Root: BehaviorNotFound, EchoURI: true, ErrPageLen: 1},
		{Root: BehaviorVHost, ErrPageLen: 312},
		{Root: BehaviorEmpty},
		{Root: BehaviorReset},
	}
	paths := []string{"/", "/site/index.html", BloatedPath(1200), "/other"}
	hosts := []string{"198.51.100.10", "www.example.org"}
	connections := [][]string{{"Connection", "close"}, nil}
	pageLens := []int{0, 40, 5000, 70000} // none, under header+footer, typical, over 64 KB

	for ci, base := range configs {
		for _, pageLen := range pageLens {
			cfg := base
			cfg.PageLen, cfg.Seed = pageLen, uint64(1000*ci+pageLen)
			for _, path := range paths {
				for _, host := range hosts {
					for _, conn := range connections {
						request := BuildRequest(path, host, conn...)
						want := referenceReply(cfg, request)
						srv := NewServer(cfg)
						for _, which := range []string{"first", "second"} {
							got := fetch(t, srv, request)
							if !bytes.Equal(got.data, want.data) || got.closed != want.closed || got.graceful != want.graceful {
								t.Fatalf("config %d (%+v) path %.20q host %q headers %v: %s request got %d bytes closed=%v graceful=%v, reference %d bytes closed=%v graceful=%v\n got %.120q\nwant %.120q",
									ci, cfg, path, host, conn, which, len(got.data), got.closed, got.graceful,
									len(want.data), want.closed, want.graceful, got.data, want.data)
							}
						}
					}
				}
			}
		}
	}
}

// TestAppendRequestMatchesBuildRequest: the scanner's append-style
// builder renders BuildRequest's bytes, in one allocation, after
// whatever dst already holds.
func TestAppendRequestMatchesBuildRequest(t *testing.T) {
	for _, tc := range []struct {
		path, host string
		extra      []string
	}{
		{"/", "198.51.100.1", []string{"Connection", "close", "Accept", "*/*"}},
		{BloatedPath(1200), "www.example.org", []string{"Connection", "close"}},
		{"/x", "h", nil},
		{"/odd", "h", []string{"Dangling"}},
	} {
		want := BuildRequest(tc.path, tc.host, tc.extra...)
		got := AppendRequest(nil, tc.path, tc.host, tc.extra...)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendRequest(%.20q) = %q, BuildRequest gives %q", tc.path, got, want)
		}
		if allocs := testing.AllocsPerRun(20, func() { AppendRequest(nil, tc.path, tc.host, tc.extra...) }); allocs != 1 {
			t.Errorf("AppendRequest(%.20q) took %.0f allocations, want the one buffer", tc.path, allocs)
		}
		if got := AppendRequest([]byte("prefix"), tc.path, tc.host, tc.extra...); !bytes.Equal(got[6:], want) || string(got[:6]) != "prefix" {
			t.Errorf("AppendRequest after a prefix = %q", got)
		}
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

// TestRequestInPiecesCostsLinearMemory feeds the 1,200-byte bloated
// request one byte at a time. The parser that converted the whole
// buffer to a string twice per call allocated some 1.5 MB doing this;
// parsing in place, what is allocated is the buffer's own growth and
// the one response.
func TestRequestInPiecesCostsLinearMemory(t *testing.T) {
	cfg := ServerConfig{Root: BehaviorNotFound, EchoURI: true, Seed: 3}
	request := BuildRequest(BloatedPath(1200), "198.51.100.10", "Connection", "close")

	n := netsim.New(1)
	host := tcpstack.NewHost(n, testServer, tcpstack.Config{IW: tcpstack.IWPolicy{Segments: 10}})
	tap := &sessionTap{app: NewServer(cfg)}
	host.Listen(80, tap)
	cl := tcpstack.NewClient(n, testClient, tcpstack.ClientConfig{})
	var got []byte
	cl.Connect(testServer, 80, nil, tcpstack.ClientEvents{
		OnData: func(_ *tcpstack.ClientConn, data []byte) { got = append(got, data...) },
	})
	n.Run(netsim.Second) // handshake done, no request yet
	if tap.last == nil {
		t.Fatal("no session after the handshake")
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range request {
		tap.last.OnData(request[i : i+1])
	}
	runtime.ReadMemStats(&after)
	if spent, budget := after.TotalAlloc-before.TotalAlloc, uint64(8*len(request)); spent > budget {
		t.Errorf("a %d-byte request fed byte by byte allocated %d bytes, budget %d (8 per byte)", len(request), spent, budget)
	}

	n.RunUntilIdle()
	if want := referenceReply(cfg, request).data; !bytes.Equal(got, want) {
		t.Fatalf("response to the request in pieces: got %d bytes %.80q, want %d bytes %.80q", len(got), got, len(want), want)
	}
}

// TestSplitRequestBesideSecondConnection: a request that arrives in two
// pieces keeps its session while a second connection opens and is
// answered in between. The second connection must get a session of its
// own, not the server's one session the first still holds, and each
// connection must get the response to its own request.
func TestSplitRequestBesideSecondConnection(t *testing.T) {
	cfg := ServerConfig{Root: BehaviorNotFound, EchoURI: true, Seed: 5}
	first := BuildRequest("/first/request", "198.51.100.10", "Connection", "close")
	second := BuildRequest("/second", "198.51.100.10", "Connection", "close")

	n := netsim.New(1)
	host := tcpstack.NewHost(n, testServer, tcpstack.Config{IW: tcpstack.IWPolicy{Segments: 10}})
	tap := &sessionTap{app: NewServer(cfg)}
	host.Listen(80, tap)
	cl := tcpstack.NewClient(n, testClient, tcpstack.ClientConfig{})
	got := make([]reply, 2)
	connect := func(i int, request []byte) {
		cl.Connect(testServer, 80, request, tcpstack.ClientEvents{
			OnData:  func(_ *tcpstack.ClientConn, data []byte) { got[i].data = append(got[i].data, data...) },
			OnClose: func(_ *tcpstack.ClientConn, complete bool) { got[i].closed, got[i].graceful = true, complete },
		})
	}

	connect(0, nil)
	n.Run(netsim.Second) // handshake done, no request yet
	one := tap.last
	one.OnData(first[:len(first)/2])

	connect(1, second)
	n.Run(2 * netsim.Second)
	if tap.last == one {
		t.Fatal("the second connection was handed the session the first still holds")
	}
	if !got[1].closed {
		t.Fatal("the second connection was not answered while the first waited")
	}

	one.OnData(first[len(first)/2:])
	n.RunUntilIdle()
	for i, request := range [][]byte{first, second} {
		if want := referenceReply(cfg, request); !bytes.Equal(got[i].data, want.data) || got[i].closed != want.closed {
			t.Errorf("connection %d: got %d bytes %.80q (closed %v), want %d bytes %.80q (closed %v)",
				i+1, len(got[i].data), got[i].data, got[i].closed, len(want.data), want.data, want.closed)
		}
	}
}
