package inet

import (
	"strconv"

	"iwscan/internal/httpsim"
	"iwscan/internal/netsim"
	"iwscan/internal/stats"
	"iwscan/internal/tcpstack"
	"iwscan/internal/tlssim"
	"iwscan/internal/wire"
)

// Universe is a deterministic population of IPv4 hosts. It implements
// netsim.HostFactory, materializing hosts lazily when the first packet
// arrives and reaping them (via the tcpstack idle callback) once their
// last connection closes.
type Universe struct {
	Seed uint64
	ASes []*AS
}

// hash salts for per-host attribute derivation. Each attribute uses its
// own salt so attributes are independent.
const (
	saltRole = iota + 0x1001
	saltHTTPIW
	saltTLSIW
	saltStack
	saltHTTPProfile
	saltTLSProfile
	saltSize
	saltChain
	saltErrPage
	saltOCSP
)

func (u *Universe) hash(salt uint64, addr wire.Addr) uint64 {
	return stats.HashIP64(u.Seed*0x9e37+salt, uint32(addr))
}

func (u *Universe) hashFloat(salt uint64, addr wire.Addr) float64 {
	return float64(u.hash(salt, addr)>>11) / (1 << 53)
}

// ASOf returns the AS owning addr, or nil.
func (u *Universe) ASOf(addr wire.Addr) *AS {
	for _, as := range u.ASes {
		for _, p := range as.Prefixes {
			if p.Contains(addr) {
				return as
			}
		}
	}
	return nil
}

// Prefixes returns all announced prefixes (the scannable space).
func (u *Universe) Prefixes() []wire.Prefix {
	var out []wire.Prefix
	for _, as := range u.ASes {
		out = append(out, as.Prefixes...)
	}
	return out
}

// HostSpec is the fully derived configuration of one host, including the
// ground truth the validation experiments compare estimates against.
type HostSpec struct {
	Addr     wire.Addr
	AS       *AS
	HTTPLive bool
	TLSLive  bool

	Stack   tcpstack.Config // stack config without IW (per-port policies below)
	HTTPIW  tcpstack.IWPolicy
	TLSIW   tcpstack.IWPolicy
	HTTPCfg httpsim.ServerConfig
	TLSCfg  tlssim.ServerConfig

	HTTPProfile int
	TLSProfile  int
}

// ServiceLive reports whether the host serves the given port (80 for
// HTTP, 443 for TLS).
func (h *HostSpec) ServiceLive(port uint16) bool {
	if port == 443 {
		return h.TLSLive
	}
	return h.HTTPLive
}

// ServiceIW returns the IW policy governing the given port.
func (h *HostSpec) ServiceIW(port uint16) tcpstack.IWPolicy {
	if port == 443 {
		return h.TLSIW
	}
	return h.HTTPIW
}

// EffectiveMSS returns the segment size the host's stack will actually
// use for a peer announcing announcedMSS (applying floors and fallbacks).
func (h *HostSpec) EffectiveMSS(announcedMSS int) int {
	return h.Stack.MSS.Effective(announcedMSS, h.Stack.LocalMSS)
}

// ExpectedIWSegments returns the ground-truth IW in segments that a scan
// announcing announcedMSS should estimate on the given port.
func (h *HostSpec) ExpectedIWSegments(port uint16, announcedMSS int) int {
	eff := h.EffectiveMSS(announcedMSS)
	iw := h.ServiceIW(port).IW(eff)
	return (iw + eff - 1) / eff
}

// HostAt derives the host at addr, or nil when the address is dark.
func (u *Universe) HostAt(addr wire.Addr) *HostSpec {
	var spec HostSpec
	if !u.hostAt(addr, &spec) {
		return nil
	}
	h := spec // only a live host's spec is copied to the heap
	return &h
}

// hostAt fills h with the host at addr and reports whether there is
// one; it is false, and h untouched, when the address is dark.
func (u *Universe) hostAt(addr wire.Addr, h *HostSpec) bool {
	as := u.ASOf(addr)
	if as == nil {
		return false
	}
	// Role: carve [0,1) into [both][http-only][tls-only][dark].
	r := u.hashFloat(saltRole, addr)
	both := r < as.BothFrac
	httpLive := both || (r >= as.BothFrac && r < as.HTTPDensity)
	tlsLive := both || (r >= as.HTTPDensity && r < as.HTTPDensity+as.TLSDensity-as.BothFrac)
	if !httpLive && !tlsLive {
		return false
	}
	*h = HostSpec{Addr: addr, AS: as, HTTPLive: httpLive, TLSLive: tlsLive}

	// TCP stack.
	switch as.Stack.SampleHash(u.hash(saltStack, addr)) {
	case StackWindows:
		h.Stack = tcpstack.Config{MSS: tcpstack.MSSPolicy{Fallback: 536}, LocalMSS: 1460}
	case StackEmbedded:
		h.Stack = tcpstack.Config{MSS: tcpstack.MSSPolicy{Floor: 64}, LocalMSS: 1400}
	default:
		h.Stack = tcpstack.Config{MSS: tcpstack.MSSPolicy{Floor: 64}, LocalMSS: 1460}
	}

	// IW policies. Dual-service hosts reuse the HTTP draw unless the AS
	// runs distinct configurations per service.
	httpLabel := as.HTTPIW.SampleHash(u.hash(saltHTTPIW, addr))
	tlsLabel := httpLabel
	if as.TLSIW != nil && (!as.DualSameIW || !both) {
		tlsLabel = as.TLSIW.SampleHash(u.hash(saltTLSIW, addr))
	}
	// Correlation: TLS endpoints with tiny certificate chains are
	// predominantly legacy embedded devices (appliance UIs, old
	// middleboxes) running pre-IW10 stacks. Without this, the 14% of
	// hosts below 640 B of certificates (Figure 2) would mostly pair
	// with IW 10 and inflate the few-data share far beyond Table 1.
	// Dual hosts pinned to one configuration (DualSameIW) keep it; the
	// correlation only reshapes hosts whose TLS stack is independent.
	if tlsLive && !(both && as.DualSameIW) && as.Class != ClassCDN && as.Class != ClassCloud {
		chain := tlssim.ChainLenDist{}.SampleHash(u.hash(saltChain, addr))
		if chain < 1000 && tlsLabel >= 10 && u.hashFloat(saltTLSIW+100, addr) < 0.92 {
			tlsLabel = smallChainIW.SampleHash(u.hash(saltTLSIW+101, addr))
		}
	}
	h.HTTPIW = iwPolicy(httpLabel)
	h.TLSIW = iwPolicy(tlsLabel)

	if httpLive {
		if as.UseCondHTTP {
			legacy := as.Class == ClassLegacy || as.Class == ClassISP
			h.HTTPProfile = condProfileFor(httpLabel, legacy).SampleHash(u.hash(saltHTTPProfile, addr))
		} else {
			h.HTTPProfile = as.HTTPProfile.SampleHash(u.hash(saltHTTPProfile, addr))
		}
		h.HTTPCfg = u.httpConfig(addr, h.HTTPProfile)
	}
	if tlsLive {
		h.TLSProfile = as.TLSProfile.SampleHash(u.hash(saltTLSProfile, addr))
		h.TLSCfg = u.tlsConfig(addr, h.TLSProfile)
	}
	return true
}

// iwPolicy converts an IW label into a tcpstack policy.
func iwPolicy(label int) tcpstack.IWPolicy {
	switch label {
	case IWLabelBytes4k:
		return tcpstack.IWPolicy{Kind: tcpstack.IWBytes, Bytes: 4096}
	case IWLabelMTUFill:
		return tcpstack.IWPolicy{Kind: tcpstack.IWMTUFill, Bytes: 1536}
	default:
		return tcpstack.IWPolicy{Kind: tcpstack.IWSegments, Segments: label}
	}
}

// respHeaderLen approximates the HTTP response head our servers emit, so
// size buckets can target total wire bytes.
const respHeaderLen = 60

// httpConfig builds the HTTP server behaviour for a profile label.
func (u *Universe) httpConfig(addr wire.Addr, label int) httpsim.ServerConfig {
	seed := u.hash(saltSize, addr)
	sizeIn := func(lo, hi int) int {
		return lo + int(seed%uint64(hi-lo))
	}
	cfg := httpsim.ServerConfig{Seed: seed}
	switch {
	case label == HTTPTiny:
		cfg.Root = httpsim.BehaviorPage
		cfg.AnyPath = true
		cfg.PageLen = int(seed % 7) // total stays within one 64 B segment
	case label >= HTTPSmall1 && label <= HTTPSmall9:
		k := label - HTTPSmall1 + 1
		total := sizeIn(64*k, 64*(k+1))
		cfg.Root = httpsim.BehaviorPage
		// Minimal devices answer every path with the same small page, so
		// the URI-bloat fallback cannot enlarge their responses.
		cfg.AnyPath = true
		cfg.PageLen = max(0, total-respHeaderLen)
	case label == HTTPMedium:
		cfg.Root = httpsim.BehaviorPage
		cfg.PageLen = sizeIn(1500, 4000)
	case label == HTTPLarge:
		cfg.Root = httpsim.BehaviorPage
		cfg.PageLen = sizeIn(4000, 16000)
	case label == HTTPXL:
		cfg.Root = httpsim.BehaviorPage
		cfg.PageLen = sizeIn(16000, 64000)
	case label == HTTPRedirect:
		cfg.Root = httpsim.BehaviorRedirect
		var b [64]byte
		name := strconv.AppendUint(append(b[:0], "www.h"...), uint64(addr&0xffff), 10)
		cfg.RedirectHost = string(append(append(name, '.'), u.ASOf(addr).Domain...))
		cfg.RedirectPath = "/site/index.html"
		cfg.PageLen = sizeIn(2000, 16000)
	case label == HTTPErrEcho:
		cfg.Root = httpsim.BehaviorNotFound
		cfg.EchoURI = true
		cfg.ErrPageLen = 120 + int(u.hash(saltErrPage, addr)%120)
	case label == HTTPErrPlain:
		cfg.Root = httpsim.BehaviorNotFound
		cfg.ErrPageLen = 305 + int(u.hash(saltErrPage, addr)%55)
	case label == HTTPVHost:
		cfg.Root = httpsim.BehaviorVHost
		cfg.PageLen = sizeIn(4000, 16000)
		cfg.ErrPageLen = 308 + int(u.hash(saltErrPage, addr)%50)
	case label == HTTPEmpty:
		cfg.Root = httpsim.BehaviorEmpty
	default: // HTTPReset
		cfg.Root = httpsim.BehaviorReset
	}
	return cfg
}

// tlsConfig builds the TLS server behaviour for a profile label.
func (u *Universe) tlsConfig(addr wire.Addr, label int) tlssim.ServerConfig {
	cfg := tlssim.ServerConfig{Seed: u.hash(saltChain, addr)}
	switch label {
	case TLSNeedSNI:
		cfg.Behavior = tlssim.BehaviorRequireSNI
	case TLSBadCiphers:
		cfg.Behavior = tlssim.BehaviorNoCipherOverlap
	case TLSReset:
		cfg.Behavior = tlssim.BehaviorReset
	default:
		cfg.Behavior = tlssim.BehaviorServeChain
		cfg.OCSPStaple = label == TLSChainOCSP
		cfg.OCSPLen = 800 + int(u.hash(saltOCSP, addr)%1400)
	}
	cfg.ChainLen = tlssim.ChainLenDist{}.SampleHash(u.hash(saltChain, addr))
	if as := u.ASOf(addr); as != nil && cfg.ChainLen < as.MinChain {
		cfg.ChainLen = as.MinChain + int(u.hash(saltChain+7, addr)%2000)
	}
	return cfg
}

// CreateHost implements netsim.HostFactory. The node it returns is a
// *tcpstack.Host.
func (u *Universe) CreateHost(n *netsim.Network, addr wire.Addr) netsim.Node {
	var spec HostSpec
	if !u.hostAt(addr, &spec) {
		return nil
	}
	return u.materialize(n, &spec)
}

// liveHost is a materialised host: its stack and both servers, whether
// or not the host serves both, in one allocation.
type liveHost struct {
	tcp  tcpstack.Host
	http httpsim.Server
	tls  tlssim.Server
}

// materialize builds the live tcpstack host for a spec.
func (u *Universe) materialize(n *netsim.Network, spec *HostSpec) *tcpstack.Host {
	lh := new(liveHost)
	lh.tcp.Init(n, spec.Addr, spec.Stack)
	if spec.HTTPLive {
		lh.http.Init(spec.HTTPCfg)
		lh.tcp.ListenIW(80, &lh.http, spec.HTTPIW)
	}
	if spec.TLSLive {
		lh.tls.Init(spec.TLSCfg)
		lh.tcp.ListenIW(443, &lh.tls, spec.TLSIW)
	}
	lh.tcp.SetIdleFunc(reap)
	return &lh.tcp
}

// reap unregisters a host whose last connection closed; the next packet
// to its address materialises it afresh.
func reap(h *tcpstack.Host) { h.Network().Unregister(h.Addr()) }
