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

func (tc *TargetConfig) withDefaults() TargetConfig {
	out := *tc
	if out.Port == 0 {
		out.Port = out.Strategy.DefaultPort()
	}
	if len(out.MSSList) == 0 {
		out.MSSList = []int{64, 128}
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
// each other"), then aggregation. done is invoked exactly once.
func (s *Scanner) ProbeTarget(target wire.Addr, tc TargetConfig, done func(*TargetResult)) {
	cfg := tc.withDefaults()
	if cfg.Strategy == StrategySYN {
		s.startProbe(probeSpec{target: target, dstPort: cfg.Port, mss: cfg.MSSList[0], synOnly: true},
			func(r ProbeResult) {
				tr := &TargetResult{Addr: target, Port: cfg.Port, Outcome: r.Outcome}
				done(tr)
			})
		return
	}

	var perMSS []MSSResult
	mssIdx := 0
	var probes []ProbeResult

	var nextProbe func()
	nextProbe = func() {
		if len(probes) == cfg.Repeats {
			perMSS = append(perMSS, aggregateMSS(cfg.MSSList[mssIdx], probes))
			probes = nil
			mssIdx++
			// If the host is unreachable at the first MSS, skip the rest.
			if mssIdx >= len(cfg.MSSList) || perMSS[0].Outcome == OutcomeUnreachable {
				done(finalizeTarget(target, cfg.Port, perMSS))
				return
			}
		}
		mss := cfg.MSSList[mssIdx]
		s.runStrategyProbe(target, cfg, mss, func(r ProbeResult) {
			probes = append(probes, r)
			nextProbe()
		})
	}
	nextProbe()
}

// runStrategyProbe performs one application-level probe, which for HTTP
// may span up to two connections.
func (s *Scanner) runStrategyProbe(target wire.Addr, cfg TargetConfig, mss int, done func(ProbeResult)) {
	switch cfg.Strategy {
	case StrategyTLS:
		hello := tlssim.BuildClientHello(s.rng, cfg.SNI)
		s.startProbe(probeSpec{target: target, dstPort: cfg.Port, mss: mss, payload: hello}, done)
	default:
		s.httpProbe(target, cfg, mss, done)
	}
}

// httpProbe implements §3.2: GET / first; follow a 301's Location on a
// fresh connection; otherwise, if the response was too small, retry with
// a long URI that bloats URI-echoing error pages.
func (s *Scanner) httpProbe(target wire.Addr, cfg TargetConfig, mss int, done func(ProbeResult)) {
	host := cfg.SNI
	if host == "" {
		host = target.String() // only the IP is known Internet-wide
	}
	first := httpsim.AppendRequest(nil, "/", host, "Connection", "close", "Accept", "*/*")
	s.startProbe(probeSpec{target: target, dstPort: cfg.Port, mss: mss, payload: first, keepHead: true}, func(r1 ProbeResult) {
		if r1.Outcome == OutcomeSuccess || r1.Outcome == OutcomeUnreachable {
			done(r1)
			return
		}
		// Redirect? Parse what we saw of the response head.
		if head := httpsim.ParseResponseHead(r1.Head); !cfg.NoRedirectFollow && head != nil &&
			(head.StatusCode == 301 || head.StatusCode == 302) && head.Location != "" {
			locHost, locPath := httpsim.ParseURI(head.Location)
			if locHost == "" {
				locHost = host
			}
			req := httpsim.AppendRequest(nil, locPath, locHost, "Connection", "close", "Accept", "*/*")
			s.startProbe(probeSpec{target: target, dstPort: cfg.Port, mss: mss, payload: req}, func(r2 ProbeResult) {
				done(betterProbe(r1, r2))
			})
			return
		}
		if cfg.NoBloat {
			done(r1)
			return
		}
		// Bloat the URI to enlarge a 404 error page.
		if len(s.bloat) != cfg.BloatLen {
			s.bloat = httpsim.BloatedPath(cfg.BloatLen)
		}
		bloated := httpsim.AppendRequest(nil, s.bloat, host, "Connection", "close")
		s.startProbe(probeSpec{target: target, dstPort: cfg.Port, mss: mss, payload: bloated}, func(r2 ProbeResult) {
			done(betterProbe(r1, r2))
		})
	})
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
