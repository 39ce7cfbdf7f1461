// Package wire implements binary encoding and decoding of the IPv4, TCP
// and ICMP headers the scanner puts on the (simulated) wire. The formats
// follow RFC 791, RFC 793 and RFC 792 including header checksums, so the
// probe modules exercise the same parsing and validation logic a raw
// socket implementation would.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
)

// Protocol numbers used in the IPv4 header (RFC 790 / IANA).
const (
	ProtoICMP = 1
	ProtoTCP  = 6
)

// Addr is an IPv4 address in host byte order. Using a plain uint32 keeps
// address arithmetic (prefix checks, permutation iteration) cheap.
type Addr uint32

// AddrFrom4 builds an Addr from four dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad string such as "192.0.2.1".
func ParseAddr(s string) (Addr, error) {
	var octets [4]int
	field, pos := 0, 0
	for pos < len(s) {
		ch := s[pos]
		switch {
		case ch >= '0' && ch <= '9':
			octets[field] = octets[field]*10 + int(ch-'0')
			if octets[field] > 255 {
				return 0, fmt.Errorf("wire: invalid IPv4 address %q", s)
			}
		case ch == '.':
			if field == 3 || pos == 0 || s[pos-1] == '.' {
				return 0, fmt.Errorf("wire: invalid IPv4 address %q", s)
			}
			field++
		default:
			return 0, fmt.Errorf("wire: invalid IPv4 address %q", s)
		}
		pos++
	}
	if field != 3 || s[len(s)-1] == '.' {
		return 0, fmt.Errorf("wire: invalid IPv4 address %q", s)
	}
	return AddrFrom4(byte(octets[0]), byte(octets[1]), byte(octets[2]), byte(octets[3])), nil
}

// MustParseAddr is ParseAddr that panics on error, for constants in tests
// and configuration tables.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	var b [len("255.255.255.255")]byte
	return string(a.AppendTo(b[:0]))
}

// AppendTo appends the dotted-quad form of a to dst.
func (a Addr) AppendTo(dst []byte) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		dst = strconv.AppendUint(dst, uint64(byte(a>>shift)), 10)
		if shift > 0 {
			dst = append(dst, '.')
		}
	}
	return dst
}

// Prefix is an IPv4 CIDR prefix.
type Prefix struct {
	Addr Addr
	Bits int
}

// ParsePrefix parses "a.b.c.d/len".
func ParsePrefix(s string) (Prefix, error) {
	slash := -1
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			slash = i
			break
		}
	}
	if slash < 0 {
		return Prefix{}, fmt.Errorf("wire: invalid prefix %q", s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, fmt.Errorf("wire: invalid prefix %q", s)
	}
	bits := 0
	rest := s[slash+1:]
	if rest == "" {
		return Prefix{}, fmt.Errorf("wire: invalid prefix %q", s)
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] < '0' || rest[i] > '9' {
			return Prefix{}, fmt.Errorf("wire: invalid prefix %q", s)
		}
		bits = bits*10 + int(rest[i]-'0')
		if bits > 32 {
			return Prefix{}, fmt.Errorf("wire: invalid prefix %q", s)
		}
	}
	p := Prefix{Addr: addr, Bits: bits}
	p.Addr &= p.Mask()
	return p, nil
}

// MustParsePrefix is ParsePrefix that panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Mask returns the network mask of the prefix as an Addr.
func (p Prefix) Mask() Addr {
	if p.Bits <= 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - p.Bits))
}

// Contains reports whether a falls inside the prefix.
func (p Prefix) Contains(a Addr) bool {
	return a&p.Mask() == p.Addr&p.Mask()
}

// Size returns the number of addresses covered by the prefix.
func (p Prefix) Size() uint64 { return 1 << (32 - p.Bits) }

// First returns the lowest address in the prefix.
func (p Prefix) First() Addr { return p.Addr & p.Mask() }

// Nth returns the n-th address inside the prefix (n < Size).
func (p Prefix) Nth(n uint64) Addr { return p.First() + Addr(n) }

// String renders the prefix in CIDR form.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Bits) }

// IPv4Header is a decoded IPv4 header. Options are not supported; every
// header is the fixed 20 bytes (IHL=5), which matches what the scanner
// and the simulated hosts emit.
type IPv4Header struct {
	TOS      byte
	TotalLen uint16
	ID       uint16
	Flags    byte // 3-bit flags field (bit 1 = DF, bit 0 of wire = reserved)
	FragOff  uint16
	TTL      byte
	Protocol byte
	Src      Addr
	Dst      Addr
}

// IPv4HeaderLen is the length of the fixed IPv4 header we emit.
const IPv4HeaderLen = 20

// IPv4 header flag bits (in the 3-bit flags field).
const (
	IPFlagDF = 0x2 // don't fragment
	IPFlagMF = 0x1 // more fragments
)

var (
	// ErrTruncated reports a buffer too short for the claimed header.
	ErrTruncated = errors.New("wire: truncated packet")
	// ErrBadChecksum reports a failed checksum validation.
	ErrBadChecksum = errors.New("wire: bad checksum")
	// ErrBadVersion reports a non-IPv4 version nibble.
	ErrBadVersion = errors.New("wire: not an IPv4 packet")
)

// Checksum computes the RFC 1071 Internet checksum over b.
func Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// checksumAccumulate adds b to a running 32-bit checksum accumulator.
func checksumAccumulate(sum uint32, b []byte) uint32 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	return sum
}

func checksumFinish(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// PutIPv4Header encodes h into b[:IPv4HeaderLen] in place, given that
// payloadLen bytes of payload follow the header in the same packet.
// TotalLen and the header checksum are filled in. b must hold at least
// IPv4HeaderLen bytes. It never allocates, which makes it the building
// block for encoding a packet into a reusable buffer: reserve the
// header space, append the payload, then fix the header up.
func PutIPv4Header(b []byte, h *IPv4Header, payloadLen int) {
	b = b[:IPv4HeaderLen] // one bounds check; also catches short buffers
	b[0] = 0x45           // version 4, IHL 5
	b[1] = h.TOS
	binary.BigEndian.PutUint16(b[2:4], uint16(IPv4HeaderLen+payloadLen))
	binary.BigEndian.PutUint16(b[4:6], h.ID)
	binary.BigEndian.PutUint16(b[6:8], uint16(h.Flags)<<13|h.FragOff&0x1fff)
	ttl := h.TTL
	if ttl == 0 {
		ttl = 64
	}
	b[8] = ttl
	b[9] = h.Protocol
	b[10], b[11] = 0, 0 // zero before checksumming
	binary.BigEndian.PutUint32(b[12:16], uint32(h.Src))
	binary.BigEndian.PutUint32(b[16:20], uint32(h.Dst))
	cs := Checksum(b)
	binary.BigEndian.PutUint16(b[10:12], cs)
}

// EncodeIPv4 appends the encoded header plus payload to dst and returns
// the extended slice. TotalLen is computed from the payload; the header
// checksum is filled in. The header grows via a stack scratch array, so
// encoding into a buffer with sufficient capacity does not allocate.
func EncodeIPv4(dst []byte, h *IPv4Header, payload []byte) []byte {
	start := len(dst)
	var scratch [IPv4HeaderLen]byte
	dst = append(dst, scratch[:]...)
	dst = append(dst, payload...)
	PutIPv4Header(dst[start:], h, len(payload))
	return dst
}

// DecodeIPv4Into parses an IPv4 packet into the caller-owned header h,
// validating version, length and header checksum. It returns the payload
// (aliasing pkt) and never allocates, which makes it the per-packet fast
// path; DecodeIPv4 is the allocating convenience wrapper.
func DecodeIPv4Into(h *IPv4Header, pkt []byte) ([]byte, error) {
	if len(pkt) < IPv4HeaderLen {
		return nil, ErrTruncated
	}
	if pkt[0]>>4 != 4 {
		return nil, ErrBadVersion
	}
	ihl := int(pkt[0]&0xf) * 4
	if ihl < IPv4HeaderLen || len(pkt) < ihl {
		return nil, ErrTruncated
	}
	if Checksum(pkt[:ihl]) != 0 {
		return nil, ErrBadChecksum
	}
	h.TOS = pkt[1]
	h.TotalLen = binary.BigEndian.Uint16(pkt[2:4])
	h.ID = binary.BigEndian.Uint16(pkt[4:6])
	h.Flags = byte(binary.BigEndian.Uint16(pkt[6:8]) >> 13)
	h.FragOff = binary.BigEndian.Uint16(pkt[6:8]) & 0x1fff
	h.TTL = pkt[8]
	h.Protocol = pkt[9]
	h.Src = Addr(binary.BigEndian.Uint32(pkt[12:16]))
	h.Dst = Addr(binary.BigEndian.Uint32(pkt[16:20]))
	if int(h.TotalLen) < ihl || int(h.TotalLen) > len(pkt) {
		return nil, ErrTruncated
	}
	return pkt[ihl:h.TotalLen], nil
}

// DecodeIPv4 parses an IPv4 packet, validating version, length and header
// checksum. It returns the header and the payload (aliasing pkt).
func DecodeIPv4(pkt []byte) (*IPv4Header, []byte, error) {
	h := new(IPv4Header)
	payload, err := DecodeIPv4Into(h, pkt)
	if err != nil {
		return nil, nil, err
	}
	return h, payload, nil
}
