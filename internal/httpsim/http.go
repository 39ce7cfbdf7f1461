// Package httpsim implements the HTTP/1.1 subset the IW scan exercises:
// a request/response codec shared by the prober and the simulated
// servers, and a tcpstack.App reproducing the server behaviours §3.2 of
// the paper builds on — 200 pages of configurable size, 301 redirects
// whose Location header the scanner follows, 404 error pages that echo
// the request URI (so URI bloat enlarges them), Akamai-style error pages
// that do not, and servers that reset or stay silent.
package httpsim

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// Request is a parsed HTTP request head. The scanner only ever sends
// bodyless GETs, so no body handling is needed.
type Request struct {
	Method  string
	Path    string
	Proto   string
	Headers map[string]string // canonical lower-case keys
}

// Header returns a header value by case-insensitive name.
func (r *Request) Header(name string) string {
	return r.Headers[strings.ToLower(name)]
}

// ParseRequest parses a complete request head from b. It returns nil
// (and no error) when the head is not yet complete, so callers can feed
// it a growing buffer. It copies b twice and builds a map; the server
// parses in place with parseRequestHead, and this function is the
// reference that parser is fuzzed against.
func ParseRequest(b []byte) (*Request, error) {
	head, ok := splitHead(b)
	if !ok {
		return nil, nil
	}
	lines := strings.Split(head, "\r\n")
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || parts[2] == "" {
		return nil, fmt.Errorf("httpsim: malformed request line %q", lines[0])
	}
	req := &Request{
		Method:  parts[0],
		Path:    parts[1],
		Proto:   parts[2],
		Headers: make(map[string]string),
	}
	for _, l := range lines[1:] {
		if l == "" {
			continue
		}
		k, v, found := strings.Cut(l, ":")
		if !found {
			return nil, fmt.Errorf("httpsim: malformed header %q", l)
		}
		req.Headers[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
	}
	return req, nil
}

// splitHead returns the request/response head (without the trailing
// blank line) and whether the head is complete.
func splitHead(b []byte) (string, bool) {
	i := strings.Index(string(b), "\r\n\r\n")
	if i < 0 {
		return "", false
	}
	return string(b[:i]), true
}

// requestHead is what the server needs of a request: sub-slices of the
// buffer it was parsed from, valid only as long as that buffer is.
type requestHead struct {
	path, host, connection []byte
}

var headEnd = []byte("\r\n\r\n")

// parseRequestHead is ParseRequest without the copies: it finds the end
// of the head at or after offset from (callers that feed a growing
// buffer pass the length already searched, less three) and parses the
// head where it lies. complete is false while the blank line is still
// missing; err reports exactly the heads ParseRequest rejects.
func parseRequestHead(b []byte, from int) (req requestHead, complete bool, err error) {
	end := bytes.Index(b[from:], headEnd)
	if end < 0 {
		return req, false, nil
	}
	head := b[:from+end]
	line, rest, _ := bytes.Cut(head, headEnd[:2])
	method, after, ok1 := bytes.Cut(line, []byte(" "))
	path, proto, ok2 := bytes.Cut(after, []byte(" "))
	if !ok1 || !ok2 || len(method) == 0 || len(path) == 0 || len(proto) == 0 {
		return req, true, fmt.Errorf("httpsim: malformed request line %q", line)
	}
	req.path = path
	for len(rest) > 0 {
		line, rest, _ = bytes.Cut(rest, headEnd[:2])
		if len(line) == 0 {
			continue
		}
		k, v, found := bytes.Cut(line, []byte(":"))
		if !found {
			return req, true, fmt.Errorf("httpsim: malformed header %q", line)
		}
		// The last of several equal names wins, as in ParseRequest's map.
		switch k = bytes.TrimSpace(k); {
		case headerIs(k, "host"):
			req.host = bytes.TrimSpace(v)
		case headerIs(k, "connection"):
			req.connection = bytes.TrimSpace(v)
		}
	}
	return req, true, nil
}

// headerIs reports whether strings.ToLower(k) == name, for a lower-case
// ASCII name. Only a name with non-ASCII bytes takes the copying route:
// ToLower folds a few of those to ASCII letters (U+0130 to 'i').
func headerIs(k []byte, name string) bool {
	for _, c := range k {
		if c >= 0x80 {
			return strings.ToLower(string(k)) == name
		}
	}
	return len(k) == len(name) && hasPrefixFold(k, name)
}

// containsFold reports whether strings.ToLower(b) contains sub, for a
// lower-case ASCII sub without 'i' or 'k' (the ASCII letters ToLower
// can produce from non-ASCII input).
func containsFold(b []byte, sub string) bool {
	for ; len(b) >= len(sub); b = b[1:] {
		if hasPrefixFold(b, sub) {
			return true
		}
	}
	return false
}

// hasPrefixFold reports whether b starts with the lower-case ASCII
// prefix, ignoring ASCII case. len(b) >= len(prefix) must hold.
func hasPrefixFold(b []byte, prefix string) bool {
	for i := 0; i < len(prefix); i++ {
		c := b[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != prefix[i] {
			return false
		}
	}
	return true
}

// BuildRequest renders a GET request with the given path and headers.
// Header order is deterministic (host, then the rest as given). The
// scanner uses AppendRequest, which renders the same bytes into one
// exact-size buffer; this function is the reference it is tested
// against.
func BuildRequest(path, host string, extra ...string) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "GET %s HTTP/1.1\r\n", path)
	fmt.Fprintf(&sb, "Host: %s\r\n", host)
	for i := 0; i+1 < len(extra); i += 2 {
		fmt.Fprintf(&sb, "%s: %s\r\n", extra[i], extra[i+1])
	}
	sb.WriteString("\r\n")
	return []byte(sb.String())
}

// AppendRequest appends the bytes BuildRequest renders to dst, growing
// it at most once, to the exact size.
func AppendRequest(dst []byte, path, host string, extra ...string) []byte {
	n := len("GET  HTTP/1.1\r\nHost: \r\n\r\n") + len(path) + len(host)
	for i := 0; i+1 < len(extra); i += 2 {
		n += len(extra[i]) + len(": \r\n") + len(extra[i+1])
	}
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = append(dst, "GET "...)
	dst = append(dst, path...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, host...)
	dst = append(dst, "\r\n"...)
	return append(appendHeaders(dst, extra), "\r\n"...)
}

// appendHeaders appends "name: value\r\n" for each pair; a name left
// without a value is dropped, as the Build functions drop it.
func appendHeaders(dst []byte, pairs []string) []byte {
	for i := 0; i+1 < len(pairs); i += 2 {
		dst = append(dst, pairs[i]...)
		dst = append(dst, ": "...)
		dst = append(dst, pairs[i+1]...)
		dst = append(dst, "\r\n"...)
	}
	return dst
}

// ResponseHead is the parsed beginning of an HTTP response. The scanner
// often sees only a prefix of the full response (it never ACKs past the
// IW), so parsing is tolerant: Complete reports whether the blank line
// terminating the head was seen, and Location may be extracted from a
// partial head.
type ResponseHead struct {
	StatusCode int
	Location   string
	Connection string
	ContentLen int // -1 when absent or not yet seen
	Complete   bool
}

// ParseResponseHead extracts what it can from a possibly-truncated
// response prefix. It returns nil if b does not start like an HTTP
// response.
func ParseResponseHead(b []byte) *ResponseHead {
	const magic = "HTTP/"
	if !bytes.HasPrefix(b, []byte(magic)) {
		if len(b) < len(magic) && strings.HasPrefix(magic, string(b)) {
			// Too short to tell; treat as "not yet".
			return &ResponseHead{ContentLen: -1}
		}
		return nil
	}
	h := &ResponseHead{ContentLen: -1}
	head := b
	if end := bytes.Index(b, headEnd); end >= 0 {
		h.Complete = true
		head = b[:end]
	}
	// Status line: HTTP/1.1 301 Moved Permanently
	line, rest, _ := bytes.Cut(head, headEnd[:2])
	if _, after, ok := bytes.Cut(line, []byte(" ")); ok {
		code, _, _ := bytes.Cut(after, []byte(" "))
		// A status code is three digits (RFC 9110 §15); anything else
		// leaves StatusCode 0, unknown.
		if n, err := strconv.Atoi(string(code)); err == nil && len(code) == 3 && n >= 100 {
			h.StatusCode = n
		}
	}
	for len(rest) > 0 {
		line, rest, _ = bytes.Cut(rest, headEnd[:2])
		k, v, found := bytes.Cut(line, []byte(":"))
		if !found {
			continue
		}
		v = bytes.TrimSpace(v)
		switch k = bytes.TrimSpace(k); {
		case headerIs(k, "location"):
			h.Location = string(v)
		case headerIs(k, "connection"):
			h.Connection = strings.ToLower(string(v))
		case headerIs(k, "content-length"):
			if n, err := strconv.Atoi(string(v)); err == nil {
				h.ContentLen = n
			}
		}
	}
	return h
}

// ParseURI splits an absolute http:// URI into host and path. Relative
// URIs are returned with an empty host. The scanner uses this to follow
// Location headers.
func ParseURI(uri string) (host, path string) {
	rest, ok := strings.CutPrefix(uri, "http://")
	if !ok {
		if rest2, ok2 := strings.CutPrefix(uri, "https://"); ok2 {
			rest = rest2
		} else {
			// Relative.
			if !strings.HasPrefix(uri, "/") {
				uri = "/" + uri
			}
			return "", uri
		}
	}
	host, path, found := strings.Cut(rest, "/")
	if !found {
		return host, "/"
	}
	return host, "/" + path
}

// BuildResponse renders a response with deterministic header order. The
// server renders its responses with appendResponseHead, once and into
// one buffer; this function is the reference those bytes are tested
// against.
func BuildResponse(code int, reason string, body []byte, headers ...string) []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "HTTP/1.1 %d %s\r\n", code, reason)
	for i := 0; i+1 < len(headers); i += 2 {
		fmt.Fprintf(&sb, "%s: %s\r\n", headers[i], headers[i+1])
	}
	fmt.Fprintf(&sb, "Content-Length: %d\r\n", len(body))
	sb.WriteString("Connection: close\r\n\r\n")
	out := []byte(sb.String())
	return append(out, body...)
}

// appendResponseHead appends the head BuildResponse renders for a body
// of bodyLen bytes.
func appendResponseHead(dst []byte, code int, reason string, bodyLen int, headers ...string) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(code), 10)
	dst = append(dst, ' ')
	dst = append(dst, reason...)
	dst = append(dst, "\r\n"...)
	dst = appendHeaders(dst, headers)
	dst = append(dst, "Content-Length: "...)
	dst = strconv.AppendInt(dst, int64(bodyLen), 10)
	return append(dst, "\r\nConnection: close\r\n\r\n"...)
}
