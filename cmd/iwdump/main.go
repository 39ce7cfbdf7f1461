// Command iwdump renders a packet capture written by iwscan -pcap as
// tcpdump-style text, with HTTP request lines and TLS record types
// annotated — handy for following an IW inference packet by packet.
// It streams the capture record by record, so a full-scan capture is
// rendered in constant memory.
//
//	iwscan -sample 0.0005 -pcap scan.pcap -out /dev/null
//	iwdump scan.pcap | head -40
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"iwscan/internal/flight"
	"iwscan/internal/tlssim"
	"iwscan/internal/wire"
)

func main() {
	host := flag.String("host", "", "only show packets to or from this address")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: iwdump [-host a.b.c.d] <capture.pcap>")
		os.Exit(2)
	}
	if err := dump(os.Stdout, flag.Arg(0), *host); err != nil {
		fmt.Fprintf(os.Stderr, "iwdump: %v\n", err)
		os.Exit(1)
	}
}

// dump renders the capture at path to out, one line per packet, keeping
// only packets to or from host when host is set.
func dump(out io.Writer, path, host string) error {
	var filter wire.Addr
	if host != "" {
		var err error
		if filter, err = wire.ParseAddr(host); err != nil {
			return err
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	pr, err := flight.NewPcapReader(bufio.NewReader(f))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(out)
	for {
		p, err := pr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			w.Flush()
			return err
		}
		if host != "" {
			ip, _, err := wire.DecodeIPv4(p.Data)
			if err != nil || (ip.Src != filter && ip.Dst != filter) {
				continue
			}
		}
		fmt.Fprintln(w, formatPacket(p))
	}
	return w.Flush()
}

// formatPacket renders one packet as a tcpdump-style line.
func formatPacket(p flight.Captured) string {
	ip, payload, err := wire.DecodeIPv4(p.Data)
	if err != nil {
		return fmt.Sprintf("%v malformed packet (%d bytes)", p.At, len(p.Data))
	}
	switch ip.Protocol {
	case wire.ProtoTCP:
		tcp, data, err := wire.DecodeTCP(ip.Src, ip.Dst, payload)
		if err != nil {
			return fmt.Sprintf("%v IP %s > %s: bad TCP segment", p.At, ip.Src, ip.Dst)
		}
		return fmt.Sprintf("%v IP %s.%d > %s.%d: Flags [%s], seq %d, ack %d, win %d%s, length %d%s",
			p.At, ip.Src, tcp.SrcPort, ip.Dst, tcp.DstPort,
			tcpFlags(tcp.Flags), tcp.Seq, tcp.Ack, tcp.Window,
			tcpOpts(tcp), len(data), payloadNote(data))
	case wire.ProtoICMP:
		icmp, err := wire.DecodeICMP(payload)
		if err != nil {
			return fmt.Sprintf("%v IP %s > %s: bad ICMP message", p.At, ip.Src, ip.Dst)
		}
		return fmt.Sprintf("%v IP %s > %s: ICMP type %d code %d, length %d",
			p.At, ip.Src, ip.Dst, icmp.Type, icmp.Code, len(payload))
	default:
		return fmt.Sprintf("%v IP %s > %s: proto %d, length %d",
			p.At, ip.Src, ip.Dst, ip.Protocol, len(payload))
	}
}

func tcpFlags(f byte) string {
	var sb strings.Builder
	for _, fl := range []struct {
		bit  byte
		name string
	}{
		{wire.FlagSYN, "S"}, {wire.FlagFIN, "F"}, {wire.FlagRST, "R"},
		{wire.FlagPSH, "P"}, {wire.FlagACK, "."}, {wire.FlagURG, "U"},
	} {
		if f&fl.bit != 0 {
			sb.WriteString(fl.name)
		}
	}
	if sb.Len() == 0 {
		return "none"
	}
	return sb.String()
}

func tcpOpts(h *wire.TCPHeader) string {
	var parts []string
	if h.MSS != 0 {
		parts = append(parts, fmt.Sprintf("mss %d", h.MSS))
	}
	if h.WindowScale >= 0 {
		parts = append(parts, fmt.Sprintf("wscale %d", h.WindowScale))
	}
	if h.SACKPermitted {
		parts = append(parts, "sackOK")
	}
	if len(parts) == 0 {
		return ""
	}
	return ", options [" + strings.Join(parts, ",") + "]"
}

// payloadNote annotates well-known application payloads: the first line
// of an HTTP message or the type of a TLS record.
func payloadNote(data []byte) string {
	if len(data) == 0 {
		return ""
	}
	s := string(data)
	if strings.HasPrefix(s, "GET ") || strings.HasPrefix(s, "HTTP/") {
		line, _, _ := strings.Cut(s, "\r\n")
		if len(line) > 60 {
			line = line[:57] + "..."
		}
		return fmt.Sprintf(": %q", line)
	}
	if rec, _, err := tlssim.DecodeRecord(data); err == nil {
		switch rec.Type {
		case tlssim.RecordHandshake:
			if len(rec.Payload) > 0 {
				return fmt.Sprintf(": TLS handshake (msg type %d)", rec.Payload[0])
			}
			return ": TLS handshake"
		case tlssim.RecordAlert:
			return ": TLS alert"
		}
	}
	return ""
}
