package httpsim

import (
	"bytes"
	"strings"
	"testing"
)

func TestParseRequestComplete(t *testing.T) {
	raw := []byte("GET /index.html HTTP/1.1\r\nHost: example.org\r\nConnection: close\r\n\r\n")
	req, err := ParseRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if req == nil {
		t.Fatal("complete request reported incomplete")
	}
	if req.Method != "GET" || req.Path != "/index.html" || req.Proto != "HTTP/1.1" {
		t.Fatalf("request line: %+v", req)
	}
	if req.Header("host") != "example.org" || req.Header("HOST") != "example.org" {
		t.Fatal("Host header lookup failed")
	}
	if req.Header("Connection") != "close" {
		t.Fatal("Connection header lost")
	}
}

func TestParseRequestIncomplete(t *testing.T) {
	req, err := ParseRequest([]byte("GET / HTTP/1.1\r\nHost: x"))
	if err != nil || req != nil {
		t.Fatalf("incomplete request: req=%v err=%v", req, err)
	}
}

func TestParseRequestMalformed(t *testing.T) {
	if _, err := ParseRequest([]byte("NONSENSE\r\n\r\n")); err == nil {
		t.Fatal("malformed request line accepted")
	}
	if _, err := ParseRequest([]byte("GET / HTTP/1.1\r\nbadheader\r\n\r\n")); err == nil {
		t.Fatal("malformed header accepted")
	}
}

func TestBuildRequestRoundTrip(t *testing.T) {
	raw := BuildRequest("/a/b", "198.51.100.1", "Connection", "close")
	req, err := ParseRequest(raw)
	if err != nil || req == nil {
		t.Fatalf("parse: %v", err)
	}
	if req.Path != "/a/b" || req.Header("Host") != "198.51.100.1" || req.Header("Connection") != "close" {
		t.Fatalf("round trip: %+v", req)
	}
}

func TestParseResponseHeadComplete(t *testing.T) {
	raw := BuildResponse(301, "Moved Permanently", []byte("moved"), "Location", "http://example.org/new")
	h, ok := ParseResponseHead(raw)
	if !ok || !h.Complete {
		t.Fatal("head not parsed")
	}
	if h.StatusCode != 301 || h.Location != "http://example.org/new" {
		t.Fatalf("head: %+v", h)
	}
}

func TestParseResponseHeadPartial(t *testing.T) {
	// Only the first 40 bytes arrived (one MSS-64 segment minus options).
	raw := BuildResponse(301, "Moved Permanently", nil, "Location", "http://example.org/page")
	h, ok := ParseResponseHead(raw[:40])
	if !ok {
		t.Fatal("partial head rejected")
	}
	if h.Complete {
		t.Fatal("partial head reported complete")
	}
	if h.StatusCode != 301 {
		t.Fatalf("status = %d", h.StatusCode)
	}
	// With 60 bytes, the Location line is included.
	h, _ = ParseResponseHead(raw[:65])
	if h.Location == "" {
		t.Fatal("Location not extracted from partial head")
	}
}

func TestParseResponseHeadNotHTTP(t *testing.T) {
	if _, ok := ParseResponseHead([]byte("\x16\x03\x03binary")); ok {
		t.Fatal("binary data parsed as HTTP")
	}
	// A short prefix of "HTTP/" is indeterminate, not a failure.
	if _, ok := ParseResponseHead([]byte("HT")); !ok {
		t.Fatal("short prefix should be indeterminate")
	}
}

func TestParseURI(t *testing.T) {
	for _, tc := range []struct{ uri, host, path string }{
		{"http://example.org/a/b", "example.org", "/a/b"},
		{"http://example.org", "example.org", "/"},
		{"https://secure.example.org/x", "secure.example.org", "/x"},
		{"/relative/path", "", "/relative/path"},
		{"relative", "", "/relative"},
	} {
		host, path := ParseURI(tc.uri)
		if host != tc.host || path != tc.path {
			t.Fatalf("ParseURI(%q) = (%q, %q), want (%q, %q)", tc.uri, host, path, tc.host, tc.path)
		}
	}
}

func TestPageExactLength(t *testing.T) {
	for _, n := range []int{0, 10, 100, 1000, 5000} {
		if got := len(Page(1, n)); got != n {
			t.Fatalf("Page(%d) length = %d", n, got)
		}
	}
}

func TestPageDeterministic(t *testing.T) {
	if !bytes.Equal(Page(7, 500), Page(7, 500)) {
		t.Fatal("Page not deterministic")
	}
	if bytes.Equal(Page(7, 500), Page(8, 500)) {
		t.Fatal("Page ignores seed")
	}
}

func TestBloatedPath(t *testing.T) {
	p := BloatedPath(1400)
	if len(p) != 1400 {
		t.Fatalf("length = %d", len(p))
	}
	if !strings.HasPrefix(p, "/research-scan") {
		t.Fatalf("prefix = %q", p[:20])
	}
	short := BloatedPath(10)
	if len(short) != 10 {
		t.Fatalf("short length = %d", len(short))
	}
}

func TestBuildResponseContentLength(t *testing.T) {
	raw := BuildResponse(200, "OK", make([]byte, 321))
	head, _ := splitHead(raw)
	if !strings.Contains(head, "\r\nContent-Length: 321\r\n") {
		t.Fatalf("head lacks Content-Length: 321: %q", head)
	}
	if len(raw)-len(head)-4 != 321 {
		t.Fatal("body length mismatch")
	}
}
