package inet

import (
	"fmt"
	"strconv"

	"iwscan/internal/wire"
)

// Keywords of the rDNS names that encode the customer IP.
var (
	accessKeywords = [...]string{"customer", "dyn", "dialin"}
	infraKeywords  = [...]string{"static", "node", "core"}
)

// ReverseDNS synthesizes the PTR record for addr, or "" when the AS
// publishes none. Access networks encode the customer IP and an access
// keyword (the classification signals of §4.3); server networks use
// static names. Each name is built in a stack buffer, so the returned
// string is its only allocation.
func (u *Universe) ReverseDNS(addr wire.Addr) string {
	as := u.ASOf(addr)
	if as == nil {
		return ""
	}
	var buf [96]byte
	b := buf[:0]
	switch as.RDNS {
	case RDNSAccessIP:
		// Access networks name customer lines; ISP backbones encode the
		// IP too but with infrastructure labels, which the §4.3 keyword
		// list deliberately does not match.
		kws := &accessKeywords
		if as.Class != ClassAccess {
			kws = &infraKeywords
		}
		for shift := 24; shift >= 0; shift -= 8 {
			b = strconv.AppendUint(b, uint64(byte(addr>>shift)), 10)
			b = append(b, '-')
		}
		b[len(b)-1] = '.'
		b = append(b, kws[u.hash(0x5d5, addr)%3]...)
	case RDNSStatic:
		b = strconv.AppendUint(append(b, "srv"...), u.hash(0x5d6, addr)%100000, 10)
	default:
		return ""
	}
	return string(append(append(b, '.'), as.Domain...))
}

// PopularHost is one entry of the synthetic Alexa-style list: a popular
// site name and the address it resolves to. A scan armed with the name
// can present valid Host headers and SNI.
type PopularHost struct {
	Rank int
	Name string
	Addr wire.Addr
}

// popularWeights: which networks popular sites are hosted in. Heavily
// skewed to content infrastructure, which is what makes Figure 4's IW
// distribution so different from the whole-IPv4 one.
var popularWeights = map[string]float64{
	"AmazonEC2":    34,
	"Cloudflare":   18,
	"Akamai":       4,
	"HosterBig":    27,
	"Azure":        4,
	"GoDaddy":      4,
	"CDNOther":     3,
	"GenericWeb-1": 3,
	"GenericWeb-2": 3,
}

// PopularList synthesizes n popular hosts. Every returned address is
// live on HTTP (popular sites exist); most are live on TLS too.
func (u *Universe) PopularList(n int) []PopularHost {
	byName := make(map[string]*AS, len(u.ASes))
	for _, as := range u.ASes {
		byName[as.Name] = as
	}
	var ases []*AS
	var cum []float64
	total := 0.0
	for name, w := range popularWeights {
		if as := byName[name]; as != nil {
			ases = append(ases, as)
			total += w
			cum = append(cum, total)
		}
	}
	// Deterministic order: map iteration order varies, so sort by name.
	for i := 0; i < len(ases); i++ {
		for j := i + 1; j < len(ases); j++ {
			if ases[j].Name < ases[i].Name {
				ases[i], ases[j] = ases[j], ases[i]
				// Rebuild cum afterwards; weights move with the AS.
			}
		}
	}
	total = 0
	for i, as := range ases {
		total += popularWeights[as.Name]
		cum[i] = total
	}

	out := make([]PopularHost, 0, n)
	seen := make(map[wire.Addr]bool)
	for i := 0; len(out) < n; i++ {
		h := u.hash(0xa1e8a, wire.Addr(i))
		// Pick an AS by weight.
		uval := float64(h>>11) / (1 << 53) * total
		asIdx := 0
		for asIdx < len(cum)-1 && uval >= cum[asIdx] {
			asIdx++
		}
		as := ases[asIdx]
		// Pick a live-HTTP address within the AS.
		p := as.Prefixes[0]
		addr := p.Nth(u.hash(0xa1e8b, wire.Addr(i)) % p.Size())
		spec := u.HostAt(addr)
		if spec == nil || !spec.HTTPLive || seen[addr] {
			continue
		}
		seen[addr] = true
		rank := len(out) + 1
		out = append(out, PopularHost{
			Rank: rank,
			Name: fmt.Sprintf("www.site-%d.example", rank),
			Addr: addr,
		})
	}
	return out
}
