package flight

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"iwscan/internal/netsim"
)

// Captured is one recorded packet: a complete IPv4 datagram and the
// virtual time it entered the network.
type Captured struct {
	At   netsim.Time
	Data []byte
}

// pcap constants (https://wiki.wireshark.org/Development/LibpcapFileFormat).
// Files are classic little-endian pcap with link type RAW, so each
// record is a bare IPv4 datagram and tcpdump/Wireshark read them as-is.
const (
	pcapMagic        = 0xa1b2c3d4
	pcapVersionMajor = 2
	pcapVersionMinor = 4
	pcapLinkRaw      = 101 // LINKTYPE_RAW: packets begin with the IPv4 header
	pcapSnapLen      = 65535
	pcapHeaderLen    = 24
	pcapRecordLen    = 16
)

// PcapWriter streams a pcap file one record at a time, so a capture
// costs a write buffer rather than a copy of every packet. The file
// header is written on creation. Errors are sticky: after the first
// one every Write is a no-op, and Flush returns it.
type PcapWriter struct {
	w   *bufio.Writer
	n   int64
	err error
	rec [pcapRecordLen]byte // record-header scratch; keeps Write allocation-free
}

// NewPcapWriter writes the pcap file header to w and returns a writer
// for the records. w is buffered unless it is already a *bufio.Writer.
func NewPcapWriter(w io.Writer) *PcapWriter {
	p := &PcapWriter{w: bufio.NewWriter(w)}
	var hdr [pcapHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], pcapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], pcapVersionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], pcapVersionMinor)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], pcapSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], pcapLinkRaw)
	_, p.err = p.w.Write(hdr[:])
	return p
}

// Write appends one record: data captured at virtual time at. data is
// copied into the buffer before Write returns.
func (p *PcapWriter) Write(at netsim.Time, data []byte) {
	if p.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(p.rec[0:4], uint32(at/netsim.Second))
	binary.LittleEndian.PutUint32(p.rec[4:8], uint32((at%netsim.Second)/netsim.Microsecond))
	binary.LittleEndian.PutUint32(p.rec[8:12], uint32(len(data)))
	binary.LittleEndian.PutUint32(p.rec[12:16], uint32(len(data)))
	if _, p.err = p.w.Write(p.rec[:]); p.err != nil {
		return
	}
	if _, p.err = p.w.Write(data); p.err != nil {
		return
	}
	p.n++
}

// Packets returns how many records have been written.
func (p *PcapWriter) Packets() int64 { return p.n }

// Flush writes any buffered records through and returns the first
// error the writer met.
func (p *PcapWriter) Flush() error {
	if p.err == nil {
		p.err = p.w.Flush()
	}
	return p.err
}

// PcapReader reads a pcap file one record at a time, so a capture of
// any size is read in constant memory.
type PcapReader struct {
	r    io.Reader
	snap uint32
	rec  [pcapRecordLen]byte
}

// NewPcapReader reads and validates the file header. The version and
// link type must be the ones PcapWriter writes: a capture from another
// tool with, say, Ethernet framing would otherwise be misparsed as bare
// IPv4.
func NewPcapReader(r io.Reader) (*PcapReader, error) {
	var hdr [pcapHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != pcapMagic {
		return nil, fmt.Errorf("pcap: bad magic")
	}
	major := binary.LittleEndian.Uint16(hdr[4:6])
	minor := binary.LittleEndian.Uint16(hdr[6:8])
	if major != pcapVersionMajor || minor != pcapVersionMinor {
		return nil, fmt.Errorf("pcap: unsupported version %d.%d (want %d.%d)",
			major, minor, pcapVersionMajor, pcapVersionMinor)
	}
	if lt := binary.LittleEndian.Uint32(hdr[20:24]); lt != pcapLinkRaw {
		return nil, fmt.Errorf("pcap: unsupported link type %d (want %d, LINKTYPE_RAW)", lt, pcapLinkRaw)
	}
	snap := binary.LittleEndian.Uint32(hdr[16:20])
	if snap == 0 || snap > pcapSnapLen {
		snap = pcapSnapLen
	}
	return &PcapReader{r: r, snap: snap}, nil
}

// Next returns the next record, or io.EOF after the last complete one.
// A record larger than the snap length, or whose included length is
// not its original length (a snap-length-truncated capture cannot
// round-trip), is an error rather than a shortened packet, as is a
// microseconds field of a second or more.
func (p *PcapReader) Next() (Captured, error) {
	if _, err := io.ReadFull(p.r, p.rec[:]); err != nil {
		return Captured{}, err
	}
	usec := binary.LittleEndian.Uint32(p.rec[4:8])
	incl := binary.LittleEndian.Uint32(p.rec[8:12])
	orig := binary.LittleEndian.Uint32(p.rec[12:16])
	if incl > p.snap {
		return Captured{}, fmt.Errorf("pcap: oversized record (%d bytes, snaplen %d)", incl, p.snap)
	}
	if incl != orig {
		return Captured{}, fmt.Errorf("pcap: snapped record (%d of %d bytes captured)", incl, orig)
	}
	if usec >= 1e6 {
		return Captured{}, fmt.Errorf("pcap: bad timestamp (%d microseconds)", usec)
	}
	data := make([]byte, incl)
	if _, err := io.ReadFull(p.r, data); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a record header with no body is torn, not the end
		}
		return Captured{}, err
	}
	at := netsim.Time(binary.LittleEndian.Uint32(p.rec[0:4]))*netsim.Second +
		netsim.Time(usec)*netsim.Microsecond
	return Captured{At: at, Data: data}, nil
}

// ReadPcap reads a whole pcap file written by PcapWriter into memory
// (see PcapReader for the rules it enforces).
func ReadPcap(r io.Reader) ([]Captured, error) {
	pr, err := NewPcapReader(r)
	if err != nil {
		return nil, err
	}
	var out []Captured
	for {
		c, err := pr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
}
