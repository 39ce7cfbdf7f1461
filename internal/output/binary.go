package output

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"iwscan/internal/analysis"
	"iwscan/internal/core"
	"iwscan/internal/wire"
)

// Binary format ("IWB1"): a 4-byte magic, then one length-prefixed
// frame per record. Each frame is a uvarint payload length followed by
// the payload: uvarint-encoded fields in a fixed order (addr, port,
// outcome, iw, lower_bound, flags, iw_bytes, segments at MSS 64/128,
// max_seg, asn) and two length-prefixed strings (as_name, rdns). The
// flags byte packs ByteLimited (bit 0). Length prefixes make the stream
// skippable without decoding and let a reader detect truncation — an
// interrupted scan leaves at most one torn frame at the tail.
const binaryMagic = "IWB1"

// binaryFlagByteLimited marks records whose IW measurement hit the
// byte-based limit rather than a segment count.
const binaryFlagByteLimited = 1 << 0

// BinarySink streams records in the compact IWB1 binary format. It is
// the cheapest on-disk codec: varints keep common small fields to one
// byte, roughly a 3x size reduction over CSV for typical scan output.
type BinarySink struct {
	bw        *bufio.Writer
	needMagic bool
	frame     []byte // reused per-record scratch
	tmp       [binary.MaxVarintLen64]byte
}

// NewBinarySink writes the IWB1 stream (including magic) to w.
func NewBinarySink(w io.Writer) *BinarySink { return newBinarySink(w, true) }

func newBinarySink(w io.Writer, magic bool) *BinarySink {
	return &BinarySink{bw: bufio.NewWriter(w), needMagic: magic}
}

func (s *BinarySink) magic() error {
	if !s.needMagic {
		return nil
	}
	s.needMagic = false
	_, err := s.bw.WriteString(binaryMagic)
	return err
}

func (s *BinarySink) putUvarint(v uint64) {
	n := binary.PutUvarint(s.tmp[:], v)
	s.frame = append(s.frame, s.tmp[:n]...)
}

func (s *BinarySink) putString(v string) {
	s.putUvarint(uint64(len(v)))
	s.frame = append(s.frame, v...)
}

// WriteRecord appends one frame.
func (s *BinarySink) WriteRecord(r *analysis.Record) error {
	if err := s.magic(); err != nil {
		return err
	}
	s.frame = s.frame[:0]
	s.putUvarint(uint64(r.Addr))
	s.putUvarint(uint64(r.Port))
	s.putUvarint(uint64(r.Outcome))
	s.putUvarint(uint64(r.IW))
	s.putUvarint(uint64(r.LowerBound))
	var flags uint64
	if r.ByteLimited {
		flags |= binaryFlagByteLimited
	}
	s.putUvarint(flags)
	s.putUvarint(uint64(r.IWBytes))
	s.putUvarint(uint64(r.Segments64))
	s.putUvarint(uint64(r.Segments128))
	s.putUvarint(uint64(r.MaxSeg))
	s.putUvarint(uint64(r.ASN))
	s.putString(r.ASName)
	s.putString(r.RDNS)

	n := binary.PutUvarint(s.tmp[:], uint64(len(s.frame)))
	if _, err := s.bw.Write(s.tmp[:n]); err != nil {
		return err
	}
	_, err := s.bw.Write(s.frame)
	return err
}

// Flush writes buffered frames (and the magic, if nothing was written
// yet) to the underlying writer.
func (s *BinarySink) Flush() error {
	if err := s.magic(); err != nil {
		return err
	}
	return s.bw.Flush()
}

// Close flushes; the underlying writer stays open.
func (s *BinarySink) Close() error { return s.Flush() }

// BinaryReader decodes an IWB1 stream record by record.
type BinaryReader struct {
	br  *bufio.Reader
	buf []byte
}

// NewBinaryReader validates the magic and returns a streaming reader.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("output: reading IWB1 magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("output: bad magic %q, want %q", magic, binaryMagic)
	}
	return &BinaryReader{br: br}, nil
}

// Next decodes the next record. It returns io.EOF at a clean end of
// stream and io.ErrUnexpectedEOF on a torn tail frame.
func (d *BinaryReader) Next() (analysis.Record, error) {
	size, err := binary.ReadUvarint(d.br)
	if err != nil {
		if err == io.EOF {
			return analysis.Record{}, io.EOF
		}
		return analysis.Record{}, fmt.Errorf("output: reading frame length: %w", err)
	}
	if size > 1<<20 {
		return analysis.Record{}, fmt.Errorf("output: implausible frame length %d", size)
	}
	if uint64(cap(d.buf)) < size {
		d.buf = make([]byte, size)
	}
	d.buf = d.buf[:size]
	if _, err := io.ReadFull(d.br, d.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return analysis.Record{}, err
	}
	return decodeFrame(d.buf)
}

// frameDecoder walks one frame's payload.
type frameDecoder struct {
	b   []byte
	err error
}

func (f *frameDecoder) uvarint() uint64 {
	if f.err != nil {
		return 0
	}
	v, n := binary.Uvarint(f.b)
	if n <= 0 {
		f.err = io.ErrUnexpectedEOF
		return 0
	}
	f.b = f.b[n:]
	return v
}

func (f *frameDecoder) str() string {
	n := f.uvarint()
	if f.err != nil {
		return ""
	}
	if uint64(len(f.b)) < n {
		f.err = io.ErrUnexpectedEOF
		return ""
	}
	s := string(f.b[:n])
	f.b = f.b[n:]
	return s
}

func decodeFrame(b []byte) (analysis.Record, error) {
	f := frameDecoder{b: b}
	r := analysis.Record{
		Addr:       wire.Addr(f.uvarint()),
		Port:       uint16(f.uvarint()),
		Outcome:    core.Outcome(f.uvarint()),
		IW:         int(f.uvarint()),
		LowerBound: int(f.uvarint()),
	}
	flags := f.uvarint()
	r.ByteLimited = flags&binaryFlagByteLimited != 0
	r.IWBytes = int(f.uvarint())
	r.Segments64 = int(f.uvarint())
	r.Segments128 = int(f.uvarint())
	r.MaxSeg = int(f.uvarint())
	r.ASN = int(f.uvarint())
	r.ASName = f.str()
	r.RDNS = f.str()
	r.NoData = r.Outcome == core.OutcomeNoData
	if f.err != nil {
		return analysis.Record{}, fmt.Errorf("output: corrupt frame: %w", f.err)
	}
	if len(f.b) != 0 {
		return analysis.Record{}, fmt.Errorf("output: %d trailing bytes in frame", len(f.b))
	}
	return r, nil
}

// ReadBinary decodes a whole IWB1 stream.
func ReadBinary(r io.Reader) ([]analysis.Record, error) {
	d, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	var out []analysis.Record
	for {
		rec, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}
