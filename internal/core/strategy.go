package core

import (
	"fmt"

	"iwscan/internal/httpsim"
	"iwscan/internal/tlssim"
	"iwscan/internal/wire"
)

// Strategy selects the application-layer probing method.
type Strategy int

// Probing strategies.
const (
	// StrategyHTTP probes port 80: GET /, follow one 301 redirect, and
	// fall back to a bloated URI to enlarge 404 error pages (§3.2).
	StrategyHTTP Strategy = iota
	// StrategyTLS probes port 443 with a ClientHello carrying 40 cipher
	// suites and an OCSP status_request; the certificate chain supplies
	// the response bytes (§3.3).
	StrategyTLS
	// StrategySYN is the plain ZMap port scan (single packet exchange),
	// the efficiency baseline of §3.4.
	StrategySYN
)

// String renders the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyHTTP:
		return "http"
	case StrategyTLS:
		return "tls"
	default:
		return "syn"
	}
}

// ParseStrategy maps a strategy name onto the enum; it is the inverse
// of String.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range []Strategy{StrategyHTTP, StrategyTLS, StrategySYN} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown strategy %q (want http, tls or syn)", name)
}

// DefaultPort returns the strategy's standard port.
func (s Strategy) DefaultPort() uint16 {
	if s == StrategyTLS {
		return 443
	}
	return 80
}

// TargetConfig parameterizes a full per-target probe sequence.
type TargetConfig struct {
	Strategy Strategy
	Port     uint16
	// MSSList is the sequence of announced MSS values; the paper scans
	// with 64 B and 128 B to detect byte-configured IWs (§4.2). The
	// first entry is the primary scan reported in the distributions.
	MSSList []int
	// Repeats probes per MSS (3 in the paper, to vote out tail loss).
	Repeats int
	// BloatLen is the long-URI length for the HTTP error-page bloat.
	BloatLen int
	// SNI, if set, is presented in the TLS ClientHello and used as the
	// HTTP Host header (for targeted scans of known names).
	SNI string
	// NoRedirectFollow and NoBloat disable the two HTTP fallbacks of
	// §3.2 (for ablation studies of the methodology).
	NoRedirectFollow bool
	NoBloat          bool
}

// defaultMSSList is the paper's pair of announced MSS values; it is
// shared, and never written.
var defaultMSSList = []int{64, 128}

func (tc *TargetConfig) withDefaults() TargetConfig {
	out := *tc
	if out.Port == 0 {
		out.Port = out.Strategy.DefaultPort()
	}
	if len(out.MSSList) == 0 {
		out.MSSList = defaultMSSList
	}
	if out.Repeats == 0 {
		out.Repeats = 3
	}
	if out.BloatLen == 0 {
		out.BloatLen = 1200
	}
	return out
}

// ProbeTarget runs the full inference sequence against one host: for
// each MSS, Repeats probes back to back ("all six probes are sent after
// each other"), then aggregation. done is invoked exactly once, and the
// TargetResult it gets, slices included, is its own.
func (s *Scanner) ProbeTarget(target wire.Addr, tc TargetConfig, done func(*TargetResult)) {
	tp := s.targetProbe()
	tp.target, tp.cfg, tp.done = target, tc.withDefaults(), done
	if tp.cfg.Strategy == StrategySYN {
		tp.conn.open(tp.cfg.MSSList[0], nil, false, true)
		return
	}
	// The result's own arrays, filled in place and handed over whole.
	tp.probes = make([]ProbeResult, 0, len(tp.cfg.MSSList)*tp.cfg.Repeats)
	tp.perMSS = make([]MSSResult, 0, len(tp.cfg.MSSList))
	if tp.cfg.Strategy != StrategyTLS {
		if tp.cfg.SNI == "" {
			tp.quad = target.AppendTo(tp.quadBuf[:0]) // only the IP is known Internet-wide
		}
		tp.get = tp.appendRequest(tp.get[:0], "/", "", "Connection", "close", "Accept", "*/*")
	}
	tp.next()
}

// targetProbe is one in-flight target's probe sequence: Repeats probes
// per MSS, one connection at a time, each HTTP probe possibly followed
// by §3.2's second connection. Its methods replace a chain of closures.
// A finished state goes on its Scanner's free list. That saves nothing
// where a scan has every target in flight at once (a census), but a
// scan that probes in waits — the retry pass of a lossy scan, a job's
// segments — reuses most of its states. Each buffer is rewritten only
// once the connection that sends or fills it has finished.
type targetProbe struct {
	conn   connProbe // a target never has two connections open at once
	target wire.Addr
	cfg    TargetConfig
	done   func(*TargetResult)

	probes []ProbeResult // every finished probe, MSS by MSS
	perMSS []MSSResult   // one per finished MSS; Probes are slices of probes

	get   []byte // the GET / request, the same bytes for every probe
	req   []byte // the redirect or bloat request of a follow-up
	hello []byte // the TLS ClientHello of the current probe
	head  []byte // the GET / connection's response prefix
	quad  []byte // the target's dotted quad, its Host header without an SNI
	// quadBuf holds quad, so that a state made for one target, as in a
	// census, renders it without an allocation.
	quadBuf [len("255.255.255.255")]byte

	following bool        // the open connection is an HTTP follow-up
	first     ProbeResult // the GET / result the follow-up competes with
}

// targetProbe takes a state off the free list, or makes one.
func (s *Scanner) targetProbe() *targetProbe {
	if n := len(s.free); n > 0 {
		tp := s.free[n-1]
		s.free = s.free[:n-1]
		return tp
	}
	tp := &targetProbe{}
	tp.conn.sc, tp.conn.owner = s, tp
	tp.conn.timer.Bind(s.net, func(a any) { a.(*connProbe).onTimeout() }, &tp.conn)
	return tp
}

// next starts the target's next probe, or reports the target once its
// last MSS has all its probes.
func (tp *targetProbe) next() {
	cfg := &tp.cfg
	if from := len(tp.perMSS) * cfg.Repeats; len(tp.probes)-from == cfg.Repeats {
		n := len(tp.probes)
		tp.perMSS = append(tp.perMSS, aggregateMSS(cfg.MSSList[len(tp.perMSS)], tp.probes[from:n:n]))
		// If the host is unreachable at the first MSS, skip the rest.
		if len(tp.perMSS) >= len(cfg.MSSList) || tp.perMSS[0].Outcome == OutcomeUnreachable {
			tr := finalizeTarget(tp.target, cfg.Port, tp.perMSS)
			tp.probes, tp.perMSS = nil, nil // the caller's now
			tp.report(tr)
			return
		}
	}
	mss := cfg.MSSList[len(tp.perMSS)]
	if cfg.Strategy == StrategyTLS {
		tp.hello = tlssim.AppendClientHello(tp.hello[:0], tp.conn.sc.rng, cfg.SNI)
		tp.conn.open(mss, tp.hello, false, false)
		return
	}
	tp.conn.open(mss, tp.get, true, false)
}

// probeDone takes the result of the connection that just finished.
func (tp *targetProbe) probeDone(r ProbeResult) {
	switch {
	case tp.cfg.Strategy == StrategySYN:
		tp.report(&TargetResult{Addr: tp.target, Port: tp.cfg.Port, Outcome: r.Outcome})
		return
	case tp.following:
		tp.following = false
		r = betterProbe(tp.first, r)
	case tp.cfg.Strategy != StrategyTLS:
		if tp.followUp(r) {
			return
		}
	}
	tp.probes = append(tp.probes, r)
	tp.next()
}

// followUp implements the rest of §3.2 after GET /: follow a 301's
// Location on a fresh connection; otherwise, if the response was too
// small, retry with a long URI that bloats URI-echoing error pages. It
// reports whether it opened that second connection.
func (tp *targetProbe) followUp(r ProbeResult) bool {
	if r.Outcome == OutcomeSuccess || r.Outcome == OutcomeUnreachable {
		return false
	}
	s, cfg := tp.conn.sc, &tp.cfg
	// Redirect? Parse what we saw of the response head.
	if head, ok := httpsim.ParseResponseHead(tp.head); !cfg.NoRedirectFollow && ok &&
		(head.StatusCode == 301 || head.StatusCode == 302) && head.Location != "" {
		locHost, locPath := httpsim.ParseURI(head.Location)
		tp.req = tp.appendRequest(tp.req[:0], locPath, locHost, "Connection", "close", "Accept", "*/*")
	} else if cfg.NoBloat {
		return false
	} else {
		// Bloat the URI to enlarge a 404 error page.
		if len(s.bloat) != cfg.BloatLen {
			s.bloat = httpsim.BloatedPath(cfg.BloatLen)
		}
		tp.req = tp.appendRequest(tp.req[:0], s.bloat, "", "Connection", "close")
	}
	tp.following, tp.first = true, r
	tp.conn.open(tp.conn.mss, tp.req, false, false)
	return true
}

// appendRequest appends a GET of path to dst whose Host header is host
// or, when that is empty, the target's own: the SNI if one is set, else
// the dotted quad.
func (tp *targetProbe) appendRequest(dst []byte, path, host string, extra ...string) []byte {
	if host == "" {
		host = tp.cfg.SNI
	}
	if host == "" {
		return httpsim.AppendRequest(dst, path, tp.quad, extra...)
	}
	return httpsim.AppendRequest(dst, path, host, extra...)
}

// report hands the result to done, then puts the state back on the
// free list.
func (tp *targetProbe) report(tr *TargetResult) {
	done := tp.done
	tp.done = nil
	done(tr)
	tp.conn.sc.free = append(tp.conn.sc.free, tp)
}

// betterProbe picks the more informative of two connection attempts.
func betterProbe(a, b ProbeResult) ProbeResult {
	if b.Outcome == OutcomeSuccess {
		return b
	}
	if a.Outcome == OutcomeSuccess {
		return a
	}
	// Prefer the lower-numbered outcome class; tie-break on byte count
	// (a larger lower bound is worth more).
	if b.Outcome < a.Outcome || (b.Outcome == a.Outcome && b.Bytes > a.Bytes) {
		return b
	}
	return a
}

// DebugTargetLine renders a one-line summary for tracing scans.
func DebugTargetLine(tr *TargetResult) string {
	switch tr.Outcome {
	case OutcomeSuccess:
		extra := ""
		if tr.ByteLimited {
			extra = fmt.Sprintf(" byte-limited(%dB)", tr.IWBytes)
		}
		return fmt.Sprintf("%s:%d IW=%d%s", tr.Addr, tr.Port, tr.IW, extra)
	case OutcomeFewData:
		return fmt.Sprintf("%s:%d few-data lower-bound=%d", tr.Addr, tr.Port, tr.LowerBound)
	default:
		return fmt.Sprintf("%s:%d %s", tr.Addr, tr.Port, tr.Outcome)
	}
}
