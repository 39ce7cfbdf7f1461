package tlssim

import (
	"encoding/binary"
)

// DefaultCipherSuites is the 40-suite list §3.3 describes: the union of
// the suites announced by Safari, Firefox and Chrome, enriched with
// suites extracted from censys.io data. Values are IANA TLS cipher suite
// identifiers.
var DefaultCipherSuites = []uint16{
	0xc02c, // ECDHE-ECDSA-AES256-GCM-SHA384
	0xc02b, // ECDHE-ECDSA-AES128-GCM-SHA256
	0xc030, // ECDHE-RSA-AES256-GCM-SHA384
	0xc02f, // ECDHE-RSA-AES128-GCM-SHA256
	0xcca9, // ECDHE-ECDSA-CHACHA20-POLY1305
	0xcca8, // ECDHE-RSA-CHACHA20-POLY1305
	0xc024, // ECDHE-ECDSA-AES256-SHA384
	0xc023, // ECDHE-ECDSA-AES128-SHA256
	0xc028, // ECDHE-RSA-AES256-SHA384
	0xc027, // ECDHE-RSA-AES128-SHA256
	0xc00a, // ECDHE-ECDSA-AES256-SHA
	0xc009, // ECDHE-ECDSA-AES128-SHA
	0xc014, // ECDHE-RSA-AES256-SHA
	0xc013, // ECDHE-RSA-AES128-SHA
	0x009d, // RSA-AES256-GCM-SHA384
	0x009c, // RSA-AES128-GCM-SHA256
	0x003d, // RSA-AES256-SHA256
	0x003c, // RSA-AES128-SHA256
	0x0035, // RSA-AES256-SHA
	0x002f, // RSA-AES128-SHA
	0x000a, // RSA-3DES-EDE-CBC-SHA
	0x009f, // DHE-RSA-AES256-GCM-SHA384
	0x009e, // DHE-RSA-AES128-GCM-SHA256
	0x006b, // DHE-RSA-AES256-SHA256
	0x0067, // DHE-RSA-AES128-SHA256
	0x0039, // DHE-RSA-AES256-SHA
	0x0033, // DHE-RSA-AES128-SHA
	0x0016, // DHE-RSA-3DES-EDE-CBC-SHA
	0xc012, // ECDHE-RSA-3DES-EDE-CBC-SHA
	0xc008, // ECDHE-ECDSA-3DES-EDE-CBC-SHA
	0x0088, // DHE-RSA-CAMELLIA256-SHA
	0x0045, // DHE-RSA-CAMELLIA128-SHA
	0x0084, // RSA-CAMELLIA256-SHA
	0x0041, // RSA-CAMELLIA128-SHA
	0x0005, // RSA-RC4-128-SHA
	0x0004, // RSA-RC4-128-MD5
	0xc011, // ECDHE-RSA-RC4-128-SHA
	0xc007, // ECDHE-ECDSA-RC4-128-SHA
	0x00ff, // EMPTY-RENEGOTIATION-INFO-SCSV
	0x0096, // RSA-SEED-SHA
}

// ClientHello is the decoded form of a ClientHello message.
type ClientHello struct {
	Version      uint16
	Random       [32]byte
	SessionID    []byte
	CipherSuites []uint16
	Extensions   []Extension
}

// HasExtension reports whether an extension of the given type is present.
func (ch *ClientHello) HasExtension(typ uint16) bool {
	for _, e := range ch.Extensions {
		if e.Type == typ {
			return true
		}
	}
	return false
}

// Extension returns the first extension of the given type, if present.
func (ch *ClientHello) Extension(typ uint16) (Extension, bool) {
	for _, e := range ch.Extensions {
		if e.Type == typ {
			return e, true
		}
	}
	return Extension{}, false
}

// OffersCipher reports whether the hello offers suite.
func (ch *ClientHello) OffersCipher(suite uint16) bool {
	for _, c := range ch.CipherSuites {
		if c == suite {
			return true
		}
	}
	return false
}

// EncodeClientHello builds the handshake message body for ch.
func EncodeClientHello(ch *ClientHello) []byte {
	b := make([]byte, 0, 256)
	b = append(b, byte(ch.Version>>8), byte(ch.Version))
	b = append(b, ch.Random[:]...)
	b = append(b, byte(len(ch.SessionID)))
	b = append(b, ch.SessionID...)
	b = append(b, byte(len(ch.CipherSuites)*2>>8), byte(len(ch.CipherSuites)*2))
	for _, c := range ch.CipherSuites {
		b = append(b, byte(c>>8), byte(c))
	}
	b = append(b, 1, 0) // compression methods: null only
	return encodeExtensions(b, ch.Extensions)
}

// DecodeClientHello parses a ClientHello message body.
func DecodeClientHello(b []byte) (*ClientHello, error) {
	ch := &ClientHello{}
	if len(b) < 2+32+1 {
		return nil, ErrTruncated
	}
	ch.Version = binary.BigEndian.Uint16(b[0:2])
	copy(ch.Random[:], b[2:34])
	b = b[34:]
	sidLen := int(b[0])
	if len(b) < 1+sidLen+2 {
		return nil, ErrTruncated
	}
	ch.SessionID = append([]byte(nil), b[1:1+sidLen]...)
	b = b[1+sidLen:]
	csLen := int(binary.BigEndian.Uint16(b[0:2]))
	if csLen%2 != 0 || len(b) < 2+csLen+1 {
		return nil, ErrTruncated
	}
	if csLen > 0 {
		ch.CipherSuites = make([]uint16, 0, csLen/2)
	}
	for i := 0; i < csLen; i += 2 {
		ch.CipherSuites = append(ch.CipherSuites, binary.BigEndian.Uint16(b[2+i:4+i]))
	}
	b = b[2+csLen:]
	compLen := int(b[0])
	if len(b) < 1+compLen {
		return nil, ErrTruncated
	}
	b = b[1+compLen:]
	exts, err := decodeExtensions(b)
	if err != nil {
		return nil, err
	}
	ch.Extensions = exts
	return ch, nil
}

// ServerHello is the decoded form of a ServerHello message.
type ServerHello struct {
	Version     uint16
	Random      [32]byte
	SessionID   []byte
	CipherSuite uint16
	Extensions  []Extension
}

// EncodeServerHello builds the handshake message body for sh.
func EncodeServerHello(sh *ServerHello) []byte {
	b := make([]byte, 0, 128)
	b = append(b, byte(sh.Version>>8), byte(sh.Version))
	b = append(b, sh.Random[:]...)
	b = append(b, byte(len(sh.SessionID)))
	b = append(b, sh.SessionID...)
	b = append(b, byte(sh.CipherSuite>>8), byte(sh.CipherSuite))
	b = append(b, 0) // compression: null
	return encodeExtensions(b, sh.Extensions)
}

// DecodeServerHello parses a ServerHello message body.
func DecodeServerHello(b []byte) (*ServerHello, error) {
	sh := &ServerHello{}
	if len(b) < 2+32+1 {
		return nil, ErrTruncated
	}
	sh.Version = binary.BigEndian.Uint16(b[0:2])
	copy(sh.Random[:], b[2:34])
	b = b[34:]
	sidLen := int(b[0])
	if len(b) < 1+sidLen+3 {
		return nil, ErrTruncated
	}
	sh.SessionID = append([]byte(nil), b[1:1+sidLen]...)
	b = b[1+sidLen:]
	sh.CipherSuite = binary.BigEndian.Uint16(b[0:2])
	b = b[3:] // skip compression byte
	exts, err := decodeExtensions(b)
	if err != nil {
		return nil, err
	}
	sh.Extensions = exts
	return sh, nil
}

// EncodeCertificateChain builds a Certificate message body from the
// given DER blobs.
func EncodeCertificateChain(certs [][]byte) []byte {
	total := 0
	for _, c := range certs {
		total += 3 + len(c)
	}
	b := make([]byte, 0, 3+total)
	b = append(b, byte(total>>16), byte(total>>8), byte(total))
	for _, c := range certs {
		n := len(c)
		b = append(b, byte(n>>16), byte(n>>8), byte(n))
		b = append(b, c...)
	}
	return b
}

// DecodeCertificateChain parses a Certificate message body into its DER
// blobs.
func DecodeCertificateChain(b []byte) ([][]byte, error) {
	if len(b) < 3 {
		return nil, ErrTruncated
	}
	total := int(b[0])<<16 | int(b[1])<<8 | int(b[2])
	b = b[3:]
	if len(b) < total {
		return nil, ErrTruncated
	}
	b = b[:total]
	var certs [][]byte
	for len(b) > 0 {
		if len(b) < 3 {
			return nil, ErrTruncated
		}
		n := int(b[0])<<16 | int(b[1])<<8 | int(b[2])
		if len(b) < 3+n {
			return nil, ErrTruncated
		}
		certs = append(certs, b[3:3+n])
		b = b[3+n:]
	}
	return certs, nil
}

// ChainWireLen returns the total Certificate-message body length for a
// chain of the given DER lengths (3-byte list header + 3 bytes per cert).
func ChainWireLen(derLens []int) int {
	total := 3
	for _, n := range derLens {
		total += 3 + n
	}
	return total
}
