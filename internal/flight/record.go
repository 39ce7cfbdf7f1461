package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"iwscan/internal/netsim"
	"iwscan/internal/wire"
)

// RecordEvent is the serialized, human-readable form of one journal
// event. Addresses and flag bytes are rendered as strings so the JSON
// record reads without a decoder ring.
type RecordEvent struct {
	AtNS    int64  `json:"at_ns"`
	Type    string `json:"type"`
	Op      string `json:"op,omitempty"`
	Note    string `json:"note,omitempty"`
	Src     string `json:"src,omitempty"`
	Dst     string `json:"dst,omitempty"`
	SrcPort uint16 `json:"sport,omitempty"`
	DstPort uint16 `json:"dport,omitempty"`
	Proto   string `json:"proto,omitempty"`
	Flags   string `json:"flags,omitempty"`
	Seq     uint32 `json:"seq,omitempty"`
	Ack     uint32 `json:"ack,omitempty"`
	Len     uint32 `json:"len,omitempty"`
	A       int64  `json:"a,omitempty"`
	B       int64  `json:"b,omitempty"`
}

// Record is one frozen forensic timeline: everything the recorder saw
// about one probed target, plus the verdict that triggered the freeze.
type Record struct {
	Target  string `json:"target"`
	Verdict string `json:"verdict"`
	Detail  string `json:"detail,omitempty"`
	Trigger string `json:"trigger"` // "host", "verdict" or "sample"
	BeganNS int64  `json:"began_ns"`
	EndedNS int64  `json:"ended_ns"`

	// Truncation accounting: events overwritten in the ring and packets
	// skipped once the capture buffer filled. Zero for a healthy record.
	EventsTruncated  int `json:"events_truncated,omitempty"`
	PacketsTruncated int `json:"packets_truncated,omitempty"`

	Events []RecordEvent `json:"events"`

	// Packets holds the raw captured datagrams; they are serialized to
	// the sidecar pcap, not the JSON record.
	Packets []Captured `json:"-"`
}

// buildRecord snapshots a slab into a self-contained Record (all slab
// storage is copied; the slab can be recycled immediately after).
func (r *Recorder) buildRecord(s *slab, ended netsim.Time, verdict, detail, trigger string) *Record {
	evs := s.ordered(r.scratch)
	rec := &Record{
		Target:           s.target.String(),
		Verdict:          verdict,
		Detail:           detail,
		Trigger:          trigger,
		BeganNS:          int64(s.began),
		EndedNS:          int64(ended),
		EventsTruncated:  s.truncated,
		PacketsTruncated: s.pktSkipped,
		Events:           make([]RecordEvent, len(evs)),
	}
	for i := range evs {
		rec.Events[i] = renderEvent(&evs[i])
	}
	rec.Packets = make([]Captured, len(s.pkts))
	for i, p := range s.pkts {
		rec.Packets[i] = Captured{At: p.At, Data: append([]byte(nil), p.Data...)}
	}
	return rec
}

func renderEvent(ev *Event) RecordEvent {
	re := RecordEvent{
		AtNS: int64(ev.At),
		Type: ev.Kind.String(),
		Note: ev.Note,
		A:    ev.A,
		B:    ev.B,
	}
	switch ev.Kind {
	case KindPacket:
		re.Op = ev.Op.String()
		re.Src = ev.Src.String()
		re.Dst = ev.Dst.String()
		re.SrcPort = ev.SrcPort
		re.DstPort = ev.DstPort
		re.Proto = protoName(ev.Proto)
		re.Flags = flagString(ev.Flags)
		re.Seq = ev.Seq
		re.Ack = ev.Ack
		re.Len = ev.Len
	case KindStack:
		re.Src = ev.Src.String()
		re.Dst = ev.Dst.String()
	}
	return re
}

func protoName(p byte) string {
	switch p {
	case wire.ProtoTCP:
		return "tcp"
	case wire.ProtoICMP:
		return "icmp"
	default:
		return fmt.Sprintf("proto%d", p)
	}
}

func flagString(f byte) string {
	if f == 0 {
		return ""
	}
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
	return sb.String()
}

// Duration returns the record's timeline span.
func (r *Record) Duration() netsim.Time {
	return netsim.Time(r.EndedNS - r.BeganNS)
}

// Save writes the record's four artifacts next to each other:
//
//	<base>.flight.json  canonical JSON record
//	<base>.trace.json   Chrome trace-event JSON (open in Perfetto)
//	<base>.txt          annotated text narrative
//	<base>.pcap         raw packets (when any were captured)
func (r *Record) Save(base string) error {
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	if err := writeFile(base+".flight.json", data); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := r.WriteTraceEvents(&buf); err != nil {
		return err
	}
	if err := writeFile(base+".trace.json", buf.Bytes()); err != nil {
		return err
	}
	buf.Reset()
	if err := r.WriteNarrative(&buf); err != nil {
		return err
	}
	if err := writeFile(base+".txt", buf.Bytes()); err != nil {
		return err
	}
	if len(r.Packets) > 0 {
		buf.Reset()
		pw := NewPcapWriter(&buf)
		for _, p := range r.Packets {
			pw.Write(p.At, p.Data)
		}
		if err := pw.Flush(); err != nil {
			return err
		}
		if err := writeFile(base+".pcap", buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// Load reads a record previously saved as <path> (a .flight.json
// file). A sidecar .pcap next to it is loaded into Packets when
// present.
func Load(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("flight: %s: %w", path, err)
	}
	pcapPath := strings.TrimSuffix(path, ".flight.json") + ".pcap"
	if f, err := os.Open(pcapPath); err == nil {
		pkts, perr := ReadPcap(f)
		f.Close()
		if perr == nil {
			rec.Packets = pkts
		}
	}
	return &rec, nil
}
