package httpsim

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzParseRequest ensures the request parser never panics and only
// accepts heads with a complete terminator.
func FuzzParseRequest(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nHost"))
	f.Add([]byte("\r\n\r\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ParseRequest(data)
		if err != nil {
			return
		}
		if req == nil {
			return // incomplete
		}
		if req.Method == "" || req.Path == "" {
			t.Fatal("accepted request with empty method or path")
		}
	})
}

// FuzzParseResponseHead ensures the tolerant response parser never
// panics on truncated or binary data.
func FuzzParseResponseHead(f *testing.F) {
	f.Add([]byte("HTTP/1.1 301 Moved Permanently\r\nLocation: http://x/y\r\n\r\n"))
	f.Add([]byte("HTTP/1.1 200"))
	f.Add([]byte("\x16\x03\x03"))
	f.Add([]byte("HT"))
	f.Add([]byte("HTTP/ 100000"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h := ParseResponseHead(data)
		if h == nil {
			return
		}
		if h.StatusCode < 0 || h.StatusCode > 10000 {
			t.Fatalf("absurd status code %d", h.StatusCode)
		}
	})
}

// FuzzParseURI ensures URI splitting never panics and always yields a
// path that starts with '/'.
func FuzzParseURI(f *testing.F) {
	f.Add("http://example.org/a/b")
	f.Add("https://example.org")
	f.Add("/rel")
	f.Add("")
	f.Fuzz(func(t *testing.T, uri string) {
		_, path := ParseURI(uri)
		if len(path) == 0 || path[0] != '/' {
			t.Fatalf("path %q does not start with /", path)
		}
	})
}

// FuzzParseRequestEquivalence holds the server's in-place parser to the
// reference ParseRequest: the same verdict (incomplete, rejected,
// accepted) on every input, and on acceptance the same path, Host and
// Connection — the three things the server reads.
func FuzzParseRequestEquivalence(f *testing.F) {
	f.Add([]byte("GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nHost"))
	f.Add([]byte("GET  / HTTP/1.1\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1 extra words\r\n hOsT : a \r\nHost:b\r\n\r\nbody"))
	f.Add([]byte("GET / HTTP/1.1\r\nbadheader\r\nConnection: close\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\nConnectİon: Close\r\nHost : y\r\n\r\n"))
	f.Add([]byte("GET / HTTP/1.1\r\n\r\r\n\n\r\n\r\n"))
	f.Add([]byte("\r\n\r\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := ParseRequest(data)
		got, complete, err := parseRequestHead(data, 0)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("in place: err=%v, reference: err=%v", err, wantErr)
		}
		if complete != (want != nil || wantErr != nil) {
			t.Fatalf("in place: complete=%v, reference: req=%v err=%v", complete, want, wantErr)
		}
		if want == nil {
			return
		}
		if string(got.path) != want.Path || string(got.host) != want.Header("Host") || string(got.connection) != want.Header("Connection") {
			t.Fatalf("in place: path=%q host=%q connection=%q, reference: path=%q host=%q connection=%q",
				got.path, got.host, got.connection, want.Path, want.Header("Host"), want.Header("Connection"))
		}
		// The two predicates the server derives from those headers.
		if containsFold(got.connection, "close") != strings.Contains(strings.ToLower(want.Header("Connection")), "close") {
			t.Fatalf("close verdicts differ on Connection %q", got.connection)
		}
		// Searching from any earlier offset finds the same head.
		if from := len(data) / 2; from <= bytes.Index(data, headEnd) {
			again, _, _ := parseRequestHead(data, from)
			if string(again.path) != want.Path {
				t.Fatalf("from offset %d: path %q, want %q", from, again.path, want.Path)
			}
		}
	})
}
