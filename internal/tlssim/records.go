// Package tlssim implements the subset of TLS 1.2 the IW scan exercises:
// the record layer, the ClientHello the scanner sends, and the server's
// first flight (ServerHello, Certificate, optional CertificateStatus,
// ServerHelloDone) whose size — dominated by the certificate chain — is
// what makes TLS such a good vehicle for IW inference (§3.3 of the
// paper). Alerts model servers that require SNI or reject the offered
// cipher suites.
//
// Wire formats follow RFC 5246. No cryptography is performed: the
// scanner never finishes the handshake, so certificate bytes only need
// realistic sizes, not valid signatures.
package tlssim

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// TLS record content types.
const (
	RecordChangeCipherSpec = 20
	RecordAlert            = 21
	RecordHandshake        = 22
	RecordApplicationData  = 23
)

// Handshake message types.
const (
	HandshakeClientHello       = 1
	HandshakeServerHello       = 2
	HandshakeCertificate       = 11
	HandshakeServerKeyExchange = 12
	HandshakeCertificateStatus = 22
	HandshakeServerHelloDone   = 14
)

// Alert levels and descriptions.
const (
	AlertLevelWarning = 1
	AlertLevelFatal   = 2

	AlertHandshakeFailure    = 40
	AlertUnrecognizedName    = 112
	AlertProtocolVersion     = 70
	AlertInternalError       = 80
	AlertCloseNotify         = 0
	AlertInsufficientSecInfo = 71
)

// VersionTLS12 is the protocol version the scanner offers.
const VersionTLS12 = 0x0303

// Extension types.
const (
	ExtServerName    = 0
	ExtStatusRequest = 5
	ExtSupportedGrps = 10
	ExtECPointFmts   = 11
	ExtSignatureAlgs = 13
)

// MaxRecordLen is the maximum TLS record payload (RFC 5246 §6.2.1).
const MaxRecordLen = 1 << 14

// Errors returned by the decoders.
var (
	ErrTruncated = errors.New("tlssim: truncated message")
	ErrBadFormat = errors.New("tlssim: malformed message")
)

// Record is one TLS record.
type Record struct {
	Type    byte
	Version uint16
	Payload []byte
}

// EncodeRecord appends the record to dst. It panics if the payload
// exceeds MaxRecordLen; callers fragment long flights across records.
func EncodeRecord(dst []byte, r Record) []byte {
	if len(r.Payload) > MaxRecordLen {
		panic(fmt.Sprintf("tlssim: record payload %d exceeds maximum", len(r.Payload)))
	}
	dst = append(dst, r.Type, byte(r.Version>>8), byte(r.Version))
	dst = append(dst, byte(len(r.Payload)>>8), byte(len(r.Payload)))
	return append(dst, r.Payload...)
}

// DecodeRecord parses one record from b, returning it and the number of
// bytes consumed.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) < 5 {
		return Record{}, 0, ErrTruncated
	}
	n := int(binary.BigEndian.Uint16(b[3:5]))
	if n > MaxRecordLen {
		return Record{}, 0, ErrBadFormat
	}
	if len(b) < 5+n {
		return Record{}, 0, ErrTruncated
	}
	return Record{
		Type:    b[0],
		Version: binary.BigEndian.Uint16(b[1:3]),
		Payload: b[5 : 5+n],
	}, 5 + n, nil
}

// Handshake is one handshake-protocol message.
type Handshake struct {
	Type byte
	Body []byte
}

// EncodeHandshake appends the 4-byte handshake header plus body to dst.
func EncodeHandshake(dst []byte, h Handshake) []byte {
	n := len(h.Body)
	dst = append(dst, h.Type, byte(n>>16), byte(n>>8), byte(n))
	return append(dst, h.Body...)
}

// DecodeHandshake parses one handshake message from b, returning it and
// the bytes consumed.
func DecodeHandshake(b []byte) (Handshake, int, error) {
	if len(b) < 4 {
		return Handshake{}, 0, ErrTruncated
	}
	n := int(b[1])<<16 | int(b[2])<<8 | int(b[3])
	if len(b) < 4+n {
		return Handshake{}, 0, ErrTruncated
	}
	return Handshake{Type: b[0], Body: b[4 : 4+n]}, 4 + n, nil
}

// Alert is a TLS alert message.
type Alert struct {
	Level byte
	Desc  byte
}

// EncodeAlertRecord appends a complete alert record to dst.
func EncodeAlertRecord(dst []byte, a Alert) []byte {
	return EncodeRecord(dst, Record{
		Type:    RecordAlert,
		Version: VersionTLS12,
		Payload: []byte{a.Level, a.Desc},
	})
}

// DecodeAlert parses an alert payload.
func DecodeAlert(b []byte) (Alert, error) {
	if len(b) < 2 {
		return Alert{}, ErrTruncated
	}
	return Alert{Level: b[0], Desc: b[1]}, nil
}

// Extension is a raw hello extension.
type Extension struct {
	Type uint16
	Data []byte
}

func encodeExtensions(dst []byte, exts []Extension) []byte {
	if len(exts) == 0 {
		return dst
	}
	total := 0
	for _, e := range exts {
		total += 4 + len(e.Data)
	}
	dst = append(dst, byte(total>>8), byte(total))
	for _, e := range exts {
		dst = append(dst, byte(e.Type>>8), byte(e.Type))
		dst = append(dst, byte(len(e.Data)>>8), byte(len(e.Data)))
		dst = append(dst, e.Data...)
	}
	return dst
}

// appendExtensions appends the extensions encoded in b to exts; their
// data point into b.
func appendExtensions(exts []Extension, b []byte) ([]Extension, error) {
	if len(b) == 0 {
		return exts, nil
	}
	if len(b) < 2 {
		return exts, ErrTruncated
	}
	total := int(binary.BigEndian.Uint16(b[0:2]))
	b = b[2:]
	if len(b) < total {
		return exts, ErrTruncated
	}
	b = b[:total]
	for len(b) > 0 {
		if len(b) < 4 {
			return exts, ErrTruncated
		}
		typ := binary.BigEndian.Uint16(b[0:2])
		n := int(binary.BigEndian.Uint16(b[2:4]))
		if len(b) < 4+n {
			return exts, ErrTruncated
		}
		exts = append(exts, Extension{Type: typ, Data: b[4 : 4+n]})
		b = b[4+n:]
	}
	return exts, nil
}

// SNIExtension builds a server_name extension for hostname.
func SNIExtension(hostname string) Extension {
	n := len(hostname)
	data := make([]byte, 0, 5+n)
	data = append(data, byte((n+3)>>8), byte(n+3)) // server name list length
	data = append(data, 0)                         // name type: host_name
	data = append(data, byte(n>>8), byte(n))
	data = append(data, hostname...)
	return Extension{Type: ExtServerName, Data: data}
}

// SNIHostname extracts the hostname from a server_name extension, or ""
// if the extension is malformed.
func SNIHostname(e Extension) string {
	b := e.Data
	if len(b) < 5 || b[2] != 0 {
		return ""
	}
	n := int(binary.BigEndian.Uint16(b[3:5]))
	if len(b) < 5+n {
		return ""
	}
	return string(b[5 : 5+n])
}

// StatusRequestExtension builds an OCSP status_request extension
// (RFC 6066 §8) as browsers send it.
func StatusRequestExtension() Extension {
	// status_type = ocsp(1), empty responder list, empty extensions.
	return Extension{Type: ExtStatusRequest, Data: []byte{1, 0, 0, 0, 0}}
}
